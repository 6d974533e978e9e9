"""Range order of the thread pool helper, and the fork runner's ranges,
failures and reaping."""

import os
import signal
import time

import numpy as np
import pytest

from boweltrack import parallel

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def assert_all_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_map_ranges_covers_in_order(monkeypatch, workers):
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    assert parallel.map_ranges(lambda lo, hi: (lo, hi), 10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert parallel.map_ranges(lambda lo, hi: (lo, hi), 0, 4) == []


@needs_fork
@pytest.mark.parametrize("workers", [1, 2, 5])
def test_fork_ranges_fill_shared_buffer_in_order(monkeypatch, workers):
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    # Per range: its bounds, the process that ran it, and the order of the
    # call within that process.
    calls = parallel.shared_array((3, 4), np.int64)
    done = []

    def fill(lo, hi):
        done.append(lo)
        calls[lo // 4] = lo, hi, os.getpid(), len(done)

    parallel.fork_ranges(fill, 10, 4)
    assert calls[:, :2].tolist() == [[0, 4], [4, 8], [8, 10]]
    pids = calls[:, 2].tolist()
    assert pids[0] == os.getpid()
    # Each process runs one run of consecutive ranges, in order.
    assert len(set(pids)) == min(workers, 3)
    assert pids == sorted(pids, key=pids.index)
    for pid in set(pids):
        assert calls[calls[:, 2] == pid, 3].tolist() == list(range(1, pids.count(pid) + 1))
    assert_all_reaped()
    parallel.fork_ranges(fill, 0, 4)
    assert calls[:, :2].tolist() == [[0, 4], [4, 8], [8, 10]]


def exit_status(code):
    def fn(lo, hi):
        if lo:
            os._exit(code)
    return fn


def raises(lo, hi):
    if lo:
        raise ValueError("boom")


def killed(lo, hi):
    if lo:
        os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
@pytest.mark.parametrize("fn, how", [
    (raises, "exited with status 1"),
    (exit_status(3), "exited with status 3"),
    (killed, "was killed by signal 9"),
])
def test_failed_worker_raises_naming_its_range(monkeypatch, fn, how):
    monkeypatch.setattr(parallel, "workers", lambda: 3)
    ran = []
    with pytest.raises(RuntimeError, match=rf"range \[4, 8\) {how}"):
        parallel.fork_ranges(lambda lo, hi: ran.append(lo) or fn(lo, hi), 8, 4)
    # The caller's own range ran to its end, and no process is left.
    assert ran == [0]
    assert_all_reaped()


@needs_fork
def test_caller_failure_kills_and_reaps_every_worker(monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: 3)

    def fn(lo, hi):
        if lo == 0:
            raise ValueError("caller's own range")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ValueError, match="caller's own range"):
        parallel.fork_ranges(fn, 3, 1)
    assert time.monotonic() - start < 30
    assert_all_reaped()


def no_fork():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("workers, n, platform_forks", [
    (1, 10, True),      # one worker
    (5, 3, True),       # one range
    (5, 10, False),     # a platform without os.fork
])
def test_in_process_without_fork(monkeypatch, workers, n, platform_forks):
    monkeypatch.setattr(parallel, "workers", lambda: workers)
    if platform_forks:
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    buf = parallel.shared_array(n, np.int64)
    ran = []

    def fill(lo, hi):
        ran.append((lo, hi))
        buf[lo:hi] = os.getpid()

    parallel.fork_ranges(fill, n, 4)
    assert ran == [(lo, min(lo + 4, n)) for lo in range(0, n, 4)]
    assert (buf == os.getpid()).all()
