"""The compiled per-voxel passes of `ridge` and `slic`, in one C file.

kernel.c holds the wall filter's Gaussian derivative passes and SLIC's
seed search, assignment, update sums, components and fragment merge.  It is
compiled once, on first use, and loaded with ctypes; `load` returns the
library, typed.  Every function allocates nothing: the callers pass every
buffer and check every length and type.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

# The kernel's source, and the command that compiles it: the compiler
# Python was built with, with no FMA contraction and no fast-math, so the
# kernel rounds as the numpy and scipy code does on every platform; without
# errno from sqrt, so that the assignment's sqrt vectorises.
_SOURCE = Path(__file__).with_name("kernel.c")
_COMPILE = [*shlex.split(sysconfig.get_config_var("CC") or "cc"),
            "-O3", "-fno-math-errno", "-ffp-contract=off", "-shared", "-fPIC"]

# The result and argument types of each function of kernel.c, in its order.
# A feature, which is float32 or float64, and an optional array are passed
# by address.
_IN = {t: np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
       for t in (np.float64, np.int64, np.int32)}
_OUT = {t: np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS,WRITEABLE")
        for t in (np.float64, np.int64, np.int32)}
_N, _ADDR, _FLAG, _REAL = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int, ctypes.c_double
_POS = [_IN[np.float64]] * 3
_CLUSTERS = [_N, *[_IN[np.float64]] * 3]
_SIGNATURES = {
    "slic_assign": (None, [_ADDR, _FLAG, _N, _N, *_POS, *_CLUSTERS, _IN[np.int64],
                           _IN[np.int64], _N, _N, _OUT[np.int32], _OUT[np.float64]]),
    "slic_sums": (_N, [_ADDR, _N, _N, _N, _N, _N, _N, *_POS, _N, _ADDR, _FLAG,
                       _OUT[np.int64], _OUT[np.float64], _ADDR, _ADDR, _ADDR]),
    "slic_seeds": (None, [_ADDR, _FLAG, _N, _N, _N, _REAL, _REAL, _REAL, _N,
                          _IN[np.int64], _OUT[np.int64]]),
    "slic_components": (_N, [_IN[np.int32], _N, _N, _N, _OUT[np.int32]]),
    "slic_merge_fragments": (_N, [_IN[np.int32], _N, _N, _N, _N, _OUT[np.int32], _N,
                                  _OUT[np.int64], *[_OUT[np.int32]] * 3]),
    "ridge_hessian": (None, [_IN[np.float64], _N, _N, _N, _N, _N,
                             *[_IN[np.float64], _N] * 3, _IN[np.float64],
                             _OUT[np.float64], _N, _OUT[np.float64], _OUT[np.float64]]),
}


@functools.cache
def load():
    """The functions of kernel.c, loaded with ctypes, each with the types of
    `_SIGNATURES`.  The source is compiled once by `_COMPILE`, to a file
    named by the SHA-256 of the source and the command, so a later process
    loads it without the compiler: into the package's __pycache__, or where
    that cannot be written into the user's cache, $XDG_CACHE_HOME/boweltrack
    or else ~/.cache/boweltrack."""
    key = hashlib.sha256(_SOURCE.read_bytes() + shlex.join(_COMPILE).encode())
    name = f"{_SOURCE.stem}-{key.hexdigest()}.so"
    dirs = [_SOURCE.parent / "__pycache__"]
    try:
        dirs.append(Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
                    / "boweltrack")
    except RuntimeError:
        pass  # no home directory, so no user cache
    lib = next((d / name for d in dirs if (d / name).exists()), None) or _build(dirs, name)
    kernel = ctypes.CDLL(str(lib))
    for fn, (restype, argtypes) in _SIGNATURES.items():
        getattr(kernel, fn).restype = restype
        getattr(kernel, fn).argtypes = argtypes
    return kernel


def _build(dirs, name: str) -> Path:
    """Compile the kernel into `name` in the first of `dirs` where a file can
    be made, written atomically, and remove that directory's builds of
    other sources.  A failed compile raises OSError naming the command and
    its error output."""
    for directory in dirs:
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f"{name}.", dir=directory)
        except OSError:
            continue
        os.close(fd)
        tmp = Path(tmp)
        break
    else:
        raise OSError(f"cannot compile the C kernel: none of {', '.join(map(str, dirs))} "
                      "can be written")
    cmd = [*_COMPILE, "-o", str(tmp), str(_SOURCE), "-lm"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        tmp.unlink()
        raise OSError(f"cannot compile the C kernel: {shlex.join(cmd)}: {exc}") from None
    if done.returncode:
        tmp.unlink(missing_ok=True)
        raise OSError(f"cannot compile the C kernel: {shlex.join(cmd)} exited with "
                      f"status {done.returncode}: {done.stderr.strip()}")
    lib = tmp.replace(directory / name)
    for old in directory.glob(f"{_SOURCE.stem}-*.so"):
        if old != lib:
            old.unlink(missing_ok=True)
    return lib
