"""Benchmark of the trajrules CLI pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are made from the seed (set-up, timed as setup_s; it
runs three times, spread over the run). The workload's subcommands run one
after the other, each as a fresh `python -m trajrules.cli` process, for as
many whole iterations as fit in S seconds. Every output is checked; a
subcommand that exits non-zero or fails a check is a failed operation and
ends the run.

--trace 0 reports the end-to-end metrics: wall_s (the subcommands' mean wall
times summed), the median set-up time, and the largest max-RSS of any
subcommand process; it also prints each subcommand's mean wall time.
--trace 1 runs each iteration twice, untraced and then under traced_cli.py,
and reports the per-layer metrics from the spans.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import spans
from process import run_child
from workloads import MOCK_DIR, WORKLOADS, Plan, SetupError, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 42
SETUP_REPEATS = 3
IMPORT_PROBES = 3
STEP_TIMEOUT_S = 150.0

COMMANDS = ("synth", "features", "discover", "verify", "predict", "classify", "evaluate")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Each subcommand's wall time is printed with the end-to-end metrics and
# reported as a per-layer metric of the cli (0 on a workload that does not
# run it); see NOTES.md for why it is not a gated end-to-end metric.
SUBCOMMAND_UNITS = {f"{c}_s": "s" for c in COMMANDS}
LAYER_UNITS = {**spans.LAYER_UNITS, **{f"cli.{name}": u for name, u in SUBCOMMAND_UNITS.items()}}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import trajrules.cli; "
                "print(time.perf_counter() - t)")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Bench:
    """One benchmark run: set-up, timed iterations, and operation accounting."""

    def __init__(self, workload: str, seed: int, work: Path, src: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digests: dict[str, str] = {}
        self.setup_times: list[float] = []
        self.input_digests: dict[str, str] | None = None
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.recorded = recorded.get(workload, {}) if seed == DEFAULT_SEED else {}
        (work / "logs").mkdir()
        (work / "spans").mkdir()

    def child(self, argv: list[str], name: str):
        return run_child(argv, env=self.env, cwd=self.work,
                         log_path=self.work / "logs" / f"{name}.log", timeout_s=STEP_TIMEOUT_S)

    def import_seconds(self) -> float:
        res = self.child([sys.executable, "-c", IMPORT_PROBE], "import")
        if res.returncode != 0:
            raise SetupError(f"importing trajrules.cli failed:\n{res.output}")
        return float(res.output.split()[-1])

    def setup(self, cli_main) -> Plan:
        """Set up once more, timed; every repeat must write the same inputs."""
        for path in self.work.iterdir():
            if path.is_file():
                path.unlink()
        start = time.perf_counter()
        plan = WORKLOADS[self.workload](self.seed, self.work, ROOT, cli_main)
        self.setup_times.append(time.perf_counter() - start)
        digests = {name: sha256(self.work / name) for name in plan.inputs}
        if self.input_digests is not None and digests != self.input_digests:
            raise SetupError("set-up wrote different inputs for the same seed")
        self.input_digests = digests
        return plan

    def step(self, step: Step, *, iteration: int, traced: bool) -> tuple[float, float] | None:
        """Run one subcommand; return (wall_s, maxrss_mb), or None if it failed."""
        self.attempted += 1
        label = f"{step.command}{'.traced' if traced else ''}"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(self.work / "spans" / f"{iteration}-{step.command}.json"),
                    f"{iteration}-{step.command}", step.command, *step.args]
        else:
            argv = [sys.executable, "-m", "trajrules.cli", step.command, *step.args]
        res = self.child(argv, label)
        try:
            if res.timed_out:
                raise checks.CheckError(f"timed out after {STEP_TIMEOUT_S:.0f} s")
            if res.returncode != 0:
                raise checks.CheckError(f"exit code {res.returncode}:\n{res.output[-2000:]}")
            step.check()
            self.check_digests(step)
        except checks.CheckError as exc:
            self.failures.append(f"{label} (iteration {iteration}): {exc}")
            return None
        return res.wall_s, res.maxrss_mb

    def check_digests(self, step: Step) -> None:
        """Outputs repeat byte for byte within a run and match the recorded ones."""
        for name in step.outputs:
            digest = sha256(self.work / name)
            first = self.first_digests.setdefault(name, digest)
            if digest != first:
                raise checks.CheckError(f"{name} differs from the run's first iteration")
            if name in self.recorded and digest != self.recorded[name]:
                raise checks.CheckError(f"{name} differs from the digest recorded for seed {self.seed}")

    def iteration(self, plan: Plan, index: int, *, traced: bool) -> list[tuple[float, float]] | None:
        """(wall_s, maxrss_mb) of each step in order, or None once one fails."""
        results = []
        for step in plan.steps:
            res = self.step(step, iteration=index, traced=traced)
            if res is None:
                return None
            results.append(res)
        return results

    def traced_layers(self, plan: Plan, index: int) -> dict[str, float]:
        traces = []
        for step in plan.steps:
            doc = json.loads((self.work / "spans" / f"{index}-{step.command}.json").read_text())
            traces.append(spans.nodes_from_json(doc))
        return spans.layer_metrics(traces)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def measure(bench: Bench, cli_main, seconds: float, trace: bool) -> dict[str, float]:
    """Run whole iterations while the next one is expected to fit in seconds.

    Set-up runs before the first iteration and again after the next ones
    until it has run SETUP_REPEATS times, so its repeats meet the machine at
    different moments.

    Timings are means over the iterations. The machine's noise is bimodal (a
    subcommand runs either at full speed or about 1.5 times slower, switching
    within seconds), so a median flips between the two modes from run to run
    while a mean follows the mix.
    """
    plan = bench.setup(cli_main)
    untraced: list[list[tuple[float, float]]] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        run = bench.iteration(plan, index, traced=False)
        if run is None:
            break
        untraced.append(run)
        if trace:
            run = bench.iteration(plan, index, traced=True)
            if run is None:
                break
            traced_walls.append(sum(wall for wall, _ in run))
            layers.append(bench.traced_layers(plan, index))
        index += 1
        if len(bench.setup_times) < SETUP_REPEATS:
            plan = bench.setup(cli_main)
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            break
    while len(bench.setup_times) < SETUP_REPEATS:
        bench.setup(cli_main)

    walls = [sum(wall for wall, _ in run) for run in untraced]
    out = {f"{step.command}_s": _mean([run[i][0] for run in untraced])
           for i, step in enumerate(plan.steps)}
    if trace:
        out = {f"cli.{name}": value for name, value in out.items()}
        for name in layers[0] if layers else ():
            out[name] = _mean([m[name] for m in layers])
        out["trace.overhead_s"] = _mean(traced_walls) - _mean(walls)
        return out
    out["wall_s"] = _mean(walls)
    out["peak_rss_mb"] = max((rss for run in untraced for _, rss in run), default=0.0)
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "trajrules" / "cli.py").is_file() or not (ROOT / MOCK_DIR).is_dir():
        print(f"perfbench: {ROOT} lacks src/trajrules or {MOCK_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from trajrules import cli

    work = ROOT / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work, src)
        imports = [bench.import_seconds() for _ in range(IMPORT_PROBES if args.trace else 1)]
        metrics = measure(bench, cli.main, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics["cli.import_s"] = _median(imports)
        units, shown = LAYER_UNITS, LAYER_UNITS
    else:
        metrics["setup_s"] = _median(bench.setup_times)
        units = END_TO_END_UNITS
        shown = {**units, **{n: u for n, u in SUBCOMMAND_UNITS.items() if n in metrics}}
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, unit in shown.items():
        print(f"{name:42s} {metrics.get(name, 0.0):14.6f} {unit}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
