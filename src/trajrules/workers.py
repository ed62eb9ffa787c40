"""Run independent chunks of work on the CPUs this process may use.

A forked worker starts with the caller's imports and data, so only results
are pickled. They come back in chunk order, so no output made from them
depends on the number of chunks.
"""
from __future__ import annotations

import contextlib
import logging
import os
import pickle
import signal
import warnings
from typing import BinaryIO, Callable, Sequence

log = logging.getLogger(__name__)

MIN_SLICE_BYTES = 1 << 20  # about 20,000 track points of JSONL


class ChunkFailed(Exception):
    """A worker ended without handing over its chunk's result."""


def chunk_count(size: int) -> int:
    """One chunk per CPU of the affinity mask, none smaller than MIN_SLICE_BYTES of size."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // MIN_SLICE_BYTES))


def _fork() -> int:
    # numpy's OpenBLAS keeps a thread pool, so Python 3.12+ warns in the caller,
    # after the child exists, that forking a multi-threaded process may deadlock.
    # Raised as an error, that warning would lose the child's pid.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeprecationWarning)
        pid = os.fork()
    if pid:
        for warning in caught:
            log.info("fork: %s", warning.message)
    return pid


def fork_map(fn: Callable, chunks: Sequence) -> list:
    """[fn(chunk) for chunk in chunks], each chunk after the first in a forked child.

    A child pickles its result into a pipe and ends with os._exit, so it runs
    no exit handlers. The first chunk runs in the caller once every child has
    started. ChunkFailed means a child could not start, or ended without a
    whole result. On the way out, every child is killed if still running and
    reaped, whether fn raised or not.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            try:
                pid = _fork()
            except OSError as exc:
                os.close(r)
                os.close(w)
                raise ChunkFailed(f"cannot start a worker: {exc}") from exc
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as out:
                        pickle.dump(fn(chunk), out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [fn(chunks[0])]
        for pid, pipe in children:
            try:
                results.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError) as exc:
                raise ChunkFailed(f"worker {pid} ended without a result") from exc
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)  # a worker that sent its result has nothing left to do
                os.waitpid(pid, 0)
