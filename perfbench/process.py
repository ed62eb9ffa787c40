"""Run one child process and read its wall time and peak memory.

The child is reaped with os.wait4, so its max-RSS is its own and not the
running maximum over every child that RUSAGE_CHILDREN reports.
"""
from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    output: str  # combined stdout and stderr
    timed_out: bool = False


def run_child(
    argv: list[str],
    *,
    env: dict[str, str],
    cwd: Path,
    log_path: Path,
    timeout_s: float,
) -> ChildResult:
    """Run argv to completion; kill it after timeout_s seconds.

    Output goes to log_path rather than a pipe, so a chatty child can never
    block on a full pipe while the wall clock runs.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        fired = threading.Event()

        def kill() -> None:
            fired.set()
            proc.kill()

        killer = threading.Timer(timeout_s, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    # the child is reaped; tell Popen so it never waits on the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        output=log_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=fired.is_set(),
    )
