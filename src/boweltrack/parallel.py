"""Run a function over disjoint index ranges on every CPU the process may use.

Each range writes a disjoint part of an output with the arithmetic one call
over all of them would use, so the bytes do not depend on the CPU count.
`fork_ranges` runs the ranges in forked processes that write `shared_array`
buffers.  It is the one runner for the wall filter's compiled Gaussian
derivative passes and its eigenvalues, the SLIC assignment and the
phantom's centerline distances: a worker process holds no interpreter lock
that another one waits for, and its allocations go back to the system when
it exits.  A caller loads the compiled kernel before it forks, so the
workers share the one loaded library.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import signal
import traceback
import warnings

import numpy as np


def libc(name, *argtypes):
    """The C library's function `name` returning an int, None where the C
    library has none."""
    try:
        fn = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes, fn.restype = list(argtypes), ctypes.c_int
    return fn


_PRCTL = libc("prctl", ctypes.c_int, ctypes.c_ulong)
_PR_SET_PDEATHSIG = 1     # linux/prctl.h


def workers() -> int:
    """CPUs this process may run on: its affinity mask, which `taskset`
    narrows, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def shared_array(shape, dtype) -> np.ndarray:
    """A zero-filled array that the processes `fork_ranges` starts after it
    is made write into, and the caller reads: anonymous shared memory, or
    ordinary memory where the platform cannot fork or the array is empty
    (an anonymous map of length 0 is refused)."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    if count == 0 or not hasattr(os, "fork"):
        return np.zeros(shape, dtype)
    buf = mmap.mmap(-1, count * dtype.itemsize, flags=mmap.MAP_SHARED)
    return np.frombuffer(buf, dtype, count).reshape(shape)


def fork_ranges(fn, n: int, size: int) -> None:
    """Call fn(lo, hi) for the consecutive ranges [0, size), [size, 2 size),
    ... that cover 0..n, split into up to workers() runs of consecutive
    ranges: the first run in this process, each other one in a forked
    process.  The calls must write disjoint parts of `shared_array` buffers
    made before the call, and nothing else the caller reads.  Every process
    is reaped before the call returns or raises; when the caller's own run
    raises, the others are killed first.  A process that fails raises
    RuntimeError naming its range once all are reaped.  On one worker, or
    where the platform cannot fork, every range runs in this process."""
    bounds = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    count = min(workers(), len(bounds))
    if count <= 1 or not hasattr(os, "fork"):
        for lo, hi in bounds:
            fn(lo, hi)
        return
    runs = [bounds[k * len(bounds) // count : (k + 1) * len(bounds) // count]
            for k in range(count)]
    parent = os.getpid()
    children = {}
    try:
        for run in runs[1:]:
            pid = _fork()
            if pid == 0:
                _worker(fn, run, parent)
            children[pid] = (run[0][0], run[-1][1])
        for lo, hi in runs[0]:
            fn(lo, hi)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = {span: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, span in children.items()}
    for (lo, hi), code in codes.items():
        if code:
            how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
            raise RuntimeError(f"the worker process for range [{lo}, {hi}) {how}")


def _fork() -> int:
    # Python 3.12 warns at a fork from a process with more than one thread.
    # boweltrack starts none; the others are BLAS's idle pool threads, and
    # the workers call no BLAS routine.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        return os.fork()


def _worker(fn, run, parent: int) -> None:
    """A forked process's whole life: run its ranges, then leave with
    `os._exit`, which skips the caller's exit handlers and buffered output;
    status 0 when every range returned, else 1 after printing the traceback.
    It asks to be killed when its parent dies, and leaves at once if the
    parent died before it asked."""
    code = 1
    try:
        if _PRCTL is not None:
            _PRCTL(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() == parent:
            for lo, hi in run:
                fn(lo, hi)
            code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)
