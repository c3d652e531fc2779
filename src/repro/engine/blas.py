"""One BLAS thread per engine worker process.

numpy's OpenBLAS starts one thread per core for every ``matmul``.  When
engine work already runs in parallel worker processes — the serve
daemon's hosts, the sweep's workers — each worker's BLAS pool competes
with its siblings for the same cores.  :func:`set_one_blas_thread` sets
BLAS to one thread for the rest of the process's life; nothing restores
the old count.  The serve manager calls it before it forks the hosts,
which inherit the count, and each sweep worker calls it at start.
Single-process paths never call it and keep OpenBLAS's default.

Numerics do not move: OpenBLAS splits a GEMM over blocks of the output,
never over the K sum, so every element is summed in the same order at
any thread count.

A count that is already one is left alone.  After a ``fork`` OpenBLAS
re-creates its thread pool on the next call that sets the count, and
the new threads spin for about 0.1 s of CPU before they sleep: a
process that forks workers sets one thread *before* the fork, and the
children inherit it (:mod:`repro.serve.host`).

The runtime is found by reading ``/proc/self/maps`` once per process;
where nothing controllable is loaded (MKL, Accelerate, non-Linux) both
functions are no-ops and :func:`blas_threads` reports ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import sys
from typing import Any, Optional, Tuple

__all__ = ["blas_threads", "set_one_blas_thread"]

#: (getter, setter) export names, tried in order on each OpenBLAS found
_SPELLINGS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)

_Runtime = Tuple[Any, Any]          # ctypes (get, set) functions


def _locate() -> Optional[_Runtime]:
    """The loaded OpenBLAS's thread getter and setter, if any."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        with open("/proc/self/maps") as maps:
            paths = dict.fromkeys(line.split()[-1] for line in maps
                                  if "openblas" in line.lower())
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SPELLINGS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@functools.lru_cache(maxsize=None)
def _runtime() -> Optional[_Runtime]:
    # cached for the process; numpy (and so its BLAS) is already loaded,
    # because importing this module first runs repro.engine's __init__
    return _locate()


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count; ``None`` if it cannot be set."""
    runtime = _runtime()
    return None if runtime is None else int(runtime[0]())


def set_one_blas_thread() -> None:
    """Hold OpenBLAS at one thread from now on (idempotent)."""
    runtime = _runtime()
    if runtime is not None and runtime[0]() != 1:
        runtime[1](1)
