"""Run one trajrules subcommand with span recording on.

Usage: python traced_cli.py SPANS_JSON TRACE_ID SUBCOMMAND [ARGS...]

Imports trajrules.cli (PYTHONPATH must reach the source tree), wraps the
layer functions listed in spans.TARGETS, runs the subcommand inside a root
span named cli.<SUBCOMMAND>, writes the recorded nodes to SPANS_JSON and
exits with the subcommand's exit code.
"""
from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    spans_path, trace_id, cli_args = argv[0], argv[1], argv[2:]
    from trajrules import cli

    recorder = spans.Recorder(trace_id)
    spans.install(recorder)
    code = recorder.call(f"cli.{cli_args[0]}", cli.main, (cli_args,), {})
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
