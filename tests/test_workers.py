import os
import time
import warnings

import pytest

from trajrules import workers
from helpers import assert_no_child_left


def square_all(chunk):
    return [v * v for v in chunk]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_results_come_back_in_chunk_order(n):
    chunks = [list(range(k, 20, n)) for k in range(n)]
    assert workers.fork_map(square_all, chunks) == [square_all(c) for c in chunks]
    assert_no_child_left()


def test_children_run_in_other_processes():
    caller = os.getpid()
    pids = workers.fork_map(lambda _: os.getpid(), [0, 1, 2])
    assert pids[0] == caller
    assert len(set(pids)) == 3
    assert_no_child_left()


def test_a_child_that_exits_mid_chunk_is_a_failed_chunk():
    caller = os.getpid()

    def work(chunk):
        if os.getpid() != caller and chunk == 1:
            os._exit(1)
        return chunk

    with pytest.raises(workers.ChunkFailed):
        workers.fork_map(work, [0, 1, 2])
    assert_no_child_left()


def test_a_child_that_raises_is_a_failed_chunk():
    def work(chunk):
        if chunk:
            raise ValueError("bad chunk")
        return chunk

    with pytest.raises(workers.ChunkFailed):
        workers.fork_map(work, [0, 1])
    assert_no_child_left()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_children_are_reaped_when_the_callers_chunk_raises(error):
    caller = os.getpid()

    def work(chunk):
        if os.getpid() == caller:
            raise error("caller's chunk")
        return chunk

    with pytest.raises(error):
        workers.fork_map(work, [0, 1, 2])
    assert_no_child_left()


def test_a_busy_child_is_stopped_when_the_callers_chunk_raises():
    caller = os.getpid()

    def work(chunk):
        if os.getpid() == caller:
            raise ValueError("caller's chunk")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ValueError):
        workers.fork_map(work, [0, 1])
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_a_fork_warning_never_escapes(monkeypatch):
    real_fork = os.fork

    def warning_fork():
        pid = real_fork()
        if pid:  # as Python 3.12 does in a multi-threaded process
            warnings.warn("use of fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert workers.fork_map(square_all, [[1], [2], [3]]) == [[1], [4], [9]]
    assert_no_child_left()


def test_a_worker_that_cannot_start_is_a_failed_chunk(monkeypatch):
    real_fork, forks = os.fork, []

    def failing_second_fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", failing_second_fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(workers.ChunkFailed, match="cannot start a worker"):
        workers.fork_map(square_all, [[1], [2], [3]])
    assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_chunk_count_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(workers, "MIN_SLICE_BYTES", 100)
    assert workers.chunk_count(0) == 1
    assert workers.chunk_count(199) == 1
    assert workers.chunk_count(200) == 2
    assert workers.chunk_count(10_000) == 3  # one per CPU
    monkeypatch.delattr(os, "sched_getaffinity")
    assert workers.chunk_count(10_000) == 1
