"""Allocation peaks for the tests that bound a function's memory."""

import tracemalloc

import numpy as np

from boweltrack import parallel


def traced_peak(fn, *args) -> int:
    """The most bytes `tracemalloc` saw allocated at once while fn(*args)
    ran."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def range_peaks(monkeypatch, fn, *args, measured=lambda fn: True) -> list:
    """Run fn(*args) under `tracemalloc` with `parallel.fork_ranges` patched,
    and return, for each range of each call whose function `measured`
    accepts, the most bytes allocated at once during that range on top of
    what its process held when the range started: in this process or in a
    forked worker, which tracemalloc follows."""
    fork_ranges, peaks = parallel.fork_ranges, []

    def measured_fork_ranges(ranged, n, size):
        if not measured(ranged):
            return fork_ranges(ranged, n, size)
        found = parallel.shared_array(len(range(0, n, size)), np.int64)

        def run(lo, hi):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            ranged(lo, hi)
            found[lo // size] = tracemalloc.get_traced_memory()[1] - held

        fork_ranges(run, n, size)
        peaks.extend(found.tolist())

    monkeypatch.setattr(parallel, "fork_ranges", measured_fork_ranges)
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        tracemalloc.stop()
    return peaks
