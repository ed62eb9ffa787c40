"""Command-line pipeline: synthesize, extract, discover, verify, classify, evaluate.

Every subcommand reads and writes plain files, so a full run is a sequence
of shell steps. Exit codes: 0 success, 2 bad input or configuration,
1 any other pipeline failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from . import io
from .classification import identify_vehicle, infer_context, predict_lane_change, predict_speed_change
from .config import RunConfig, load_config, merge_overrides
from .errors import (
    DegenerateLabelsError,
    InputError,
    NoApplicableRulesError,
    TrajRulesError,
)
from .kinematics import (
    compute_kinematics,
    detect_lane_changes,
    extended_atoms,
    summarize_features,
)
from .llm import BackendConfig, HttpBackend, MockBackend
from .metrics import UNDETERMINED, compute_metrics, compute_roc_auc, report_to_dict
from .prompts import digest_sample
from .rules import RuleLibrary, load_library, save_library, seed_library
from .synth import GeneratorConfig, generate_dataset
from .trajectory import smooth_trajectory, validate_trajectory
from .verification import ValSample, discover_rules, run_verification_loop

log = logging.getLogger(__name__)


def _cfg(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    return merge_overrides(cfg, vars(args))


def _backend(cfg: RunConfig):
    if cfg.mock_dir:
        return MockBackend(fixture_dir=cfg.mock_dir)
    return HttpBackend(BackendConfig(
        endpoint=cfg.endpoint,
        model=cfg.model,
        temperature=cfg.temperature,
        max_output_tokens=cfg.max_output_tokens,
        timeout_s=cfg.timeout_s,
        max_retries=cfg.max_retries,
    ))


def _extract(traj, cfg: RunConfig):
    """validate -> smooth -> kinematics -> events -> feature mapping."""
    t = validate_trajectory(traj)
    if not cfg.no_smoothing:
        t = smooth_trajectory(t, cfg.process_noise, cfg.measurement_noise)
    kin = compute_kinematics(t)
    events = detect_lane_changes(t, window=cfg.lc_window, threshold=cfg.lc_threshold)
    feats = summarize_features(t, kin, events)
    feats.update(extended_atoms(t, kin, events))
    return t, kin, feats


def _context_for(feats: dict[str, float], cfg: RunConfig) -> str:
    if cfg.context == "auto":
        return infer_context(feats["mean_speed"], cfg.congestion_speed_threshold)
    return cfg.context


def cmd_features(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    trajectories = io.load_trajectories(args.input)
    rows = []
    skipped = 0
    for traj in trajectories:
        t, _, feats = _extract(traj, cfg)
        if cfg.min_mean_speed > 0 and feats["mean_speed"] < cfg.min_mean_speed:
            skipped += 1
            continue
        row = {
            "vehicle_id": t.vehicle_id,
            "unit_system": t.unit_system,
            "context": _context_for(feats, cfg),
            "features": feats,
        }
        if t.label is not None:
            row["label"] = t.label
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
    rows = io.load_feature_rows(args.features)
    av, hdv = _split_by_label(rows)
    if args.library_in:
        library = load_library(args.library_in)
    elif args.seed_rules:
        library = seed_library(cfg.theta)
    else:
        library = RuleLibrary(theta=cfg.theta)
    backend = _backend(cfg)
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


def _val_samples(rows: list[dict]) -> list[ValSample]:
    samples = []
    for row in rows:
        label = row.get("label")
        if label is None:
            raise InputError(
                f"feature row for {row['vehicle_id']!r} has no label; "
                "verification needs ground truth"
            )
        samples.append(ValSample(
            vehicle_id=row["vehicle_id"],
            features=row["features"],
            label=label,
            context=row.get("context", "any"),
            unit_system=row.get("unit_system"),
        ))
    return samples


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    library = load_library(args.library)
    if args.theta is not None:
        library.theta = args.theta
    samples = _val_samples(io.load_feature_rows(args.features))
    backend = _backend(cfg)
    result = run_verification_loop(
        library, samples, backend,
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
    results = []
    tally = {"AV": 0, "HDV": 0, UNDETERMINED: 0}
    for row in rows:
        context = row.get("context", "any")
        try:
            rep = identify_vehicle(
                library, row["features"], context,
                delta=cfg.delta,
                feature_units=row.get("unit_system"),
                vehicle_id=row["vehicle_id"],
            )
            entry = {
                "vehicle_id": row["vehicle_id"],
                "decision": rep.decision,
                "score": rep.score,
                "confidence": rep.confidence,
                "evidence": [
                    {"rule_id": e.rule_id, "verdict": e.verdict, "weight": e.weight}
                    for e in rep.evidence
                ],
            }
        except NoApplicableRulesError as exc:
            entry = {
                "vehicle_id": row["vehicle_id"],
                "decision": UNDETERMINED,
                "reason": str(exc),
            }
        if "label" in row:
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
    trajectories = io.load_trajectories(args.input)
    predictions = []
    for traj in trajectories:
        t, kin, feats = _extract(traj, cfg)
        context = _context_for(feats, cfg)
        if args.task == "speed":
            pred = predict_speed_change(
                library, feats, kin, context,
                feature_units=t.unit_system, vehicle_id=t.vehicle_id,
            )
        else:
            pred = predict_lane_change(
                library, feats, t, context, feature_units=t.unit_system,
            )
        predictions.append({
            "vehicle_id": t.vehicle_id,
            "direction": pred.direction,
            "scores": dict(pred.scores),
        })
    io.dump_json({"task": args.task, "predictions": predictions}, args.output)
    print(f"predicted {args.task} for {len(predictions)} vehicles")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _cfg(args)
    try:
        with open(args.report, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"report is not valid JSON: {exc}") from exc
    results = doc.get("results") if isinstance(doc, dict) else None
    if not isinstance(results, list):
        raise InputError("report file has no 'results' array")
    for i, r in enumerate(results):
        if not isinstance(r, dict):
            raise InputError(f"report entry {i} is not an object")
        if "decision" not in r:
            raise InputError(f"report entry {i} ({r.get('vehicle_id')!r}) has no 'decision'")
        score = r.get("score")
        if score is not None and type(score) not in (int, float):
            raise InputError(f"report entry {i} ({r.get('vehicle_id')!r}): "
                             f"score must be a number, got {score!r}")
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
    io.dump_json(report_to_dict(report), args.output)
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
    parser.add_argument("--min-mean-speed", type=float,
                        help="drop vehicles slower than this (0 keeps all)")
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
    p.add_argument("--theta", type=float, help="confidence threshold for a new library")
    _add_backend_flags(p)
    _add_config(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("verify", help="measure, reflect on, and refine a library")
    p.add_argument("--features", required=True, help="labeled feature JSONL file")
    p.add_argument("--library", required=True, help="rule library JSON to verify")
    p.add_argument("--output", required=True, help="verified library JSON to write")
    p.add_argument("--theta", type=float, default=None,
                   help="override the library's confidence threshold")
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
