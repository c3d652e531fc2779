"""One BLAS thread per engine worker.

numpy's OpenBLAS starts one thread per core for every ``matmul``.  When
engine work already runs on parallel workers — the serve scheduler's
threads, :class:`~repro.engine.threaded.ThreadedBackend`'s pool, the
sweep's worker processes — each worker's BLAS pool competes with its
siblings for the same cores.  :class:`SingleBlasThread` holds BLAS at
one thread while any holder is live: the first holder saves the current
count and the last one restores it.

Numerics do not move: OpenBLAS splits a GEMM over blocks of the output,
never over the K sum, so every element is summed in the same order at
any thread count.

The runtime is found by reading ``/proc/self/maps`` once per process;
where nothing controllable is loaded (MKL, Accelerate, non-Linux) every
entry point is a no-op and :func:`blas_threads` reports ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import sys
import threading
from typing import Any, Optional, Tuple

__all__ = ["SingleBlasThread", "blas_threads"]

#: (getter, setter) export names, tried in order on each OpenBLAS found
_SPELLINGS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)

_Runtime = Tuple[Any, Any]          # ctypes (get, set) functions

_lock = threading.Lock()
_holders = 0
_saved = 0


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


class SingleBlasThread:
    """One holder of the one-thread scope; :meth:`release` is idempotent.

    Use it as a context manager, or hold it across calls and release it
    from a ``close``.  With no controllable BLAS loaded it holds nothing.
    """

    def __init__(self) -> None:
        global _holders, _saved
        self._runtime = _runtime()
        if self._runtime is None:
            return
        get, put = self._runtime
        with _lock:
            if _holders == 0:
                _saved = int(get())
                put(1)
            _holders += 1

    def release(self) -> None:
        global _holders
        with _lock:
            runtime, self._runtime = self._runtime, None
            if runtime is None:
                return
            _holders -= 1
            if _holders == 0:
                runtime[1](_saved)

    def __enter__(self) -> "SingleBlasThread":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()
