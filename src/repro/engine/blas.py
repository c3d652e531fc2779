"""One BLAS thread per engine worker.

numpy's OpenBLAS starts one thread per core for every ``matmul``.  When
engine work already runs on parallel workers — the serve daemon's host
processes, :class:`~repro.engine.threaded.ThreadedBackend`'s pool, the
sweep's worker processes — each worker's BLAS pool competes with its
siblings for the same cores.  :class:`SingleBlasThread` holds BLAS at
one thread while any holder is live: the first holder saves the current
count and the last one restores it.  The serve manager takes its hold
before it forks the hosts, which inherit the count.

Numerics do not move: OpenBLAS splits a GEMM over blocks of the output,
never over the K sum, so every element is summed in the same order at
any thread count.

A count that is already one is left alone.  After a ``fork`` OpenBLAS
re-creates its thread pool on the next call that sets the count, and
the new threads spin for about 0.1 s of CPU before they sleep: a
process that forks workers sets one thread *before* the fork, and the
children inherit it (:mod:`repro.serve.host`).

The runtime is found by reading ``/proc/self/maps`` once per process;
where nothing controllable is loaded (MKL, Accelerate, non-Linux) every
entry point is a no-op and :func:`blas_threads` reports ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import os
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


def _forget_holders() -> None:
    # a forked child keeps only the forking thread: a lock another
    # thread held at the fork would never be released there, and the
    # parent's holders stay with the parent
    global _holders
    _lock._at_fork_reinit()
    with _lock:
        _holders = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_holders)


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
                if _saved != 1:
                    put(1)
            _holders += 1

    def release(self) -> None:
        global _holders
        with _lock:
            runtime, self._runtime = self._runtime, None
            if runtime is None:
                return
            _holders -= 1
            if _holders == 0 and _saved != 1:
                runtime[1](_saved)

    def __enter__(self) -> "SingleBlasThread":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()
