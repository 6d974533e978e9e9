"""Run a function over disjoint index ranges on a thread pool.

The per-voxel kernels (the wall filter's Gaussian derivatives and
eigenvalues, the SLIC assignment) spend their time in numpy and scipy code
that releases the interpreter lock, and no output voxel depends on another
one.  Split into disjoint ranges, they run on every CPU the process may use
and write exactly the bytes one thread would.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def workers() -> int:
    """CPUs this process may run on: its affinity mask, which `taskset`
    narrows, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_ranges(fn, n: int, size: int) -> list:
    """Call fn(lo, hi) for the consecutive ranges [0, size), [size, 2 size),
    ... that cover 0..n, on up to workers() threads, and return the results
    in range order.  The calls must write disjoint data."""
    bounds = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    count = min(workers(), len(bounds))
    if count <= 1:
        return [fn(lo, hi) for lo, hi in bounds]
    with ThreadPoolExecutor(count) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in bounds]
        return [future.result() for future in futures]
