"""Workspace arena: shape/dtype-keyed reuse of scratch ndarrays.

The paper's latency breakdowns attribute most of the edge-CPU forward
time to conv leaf ops, and a real fraction of *that* is allocator
traffic: every im2col convolution call needs a padded-input copy, an
im2col patch matrix and (in the backward pass) a column gradient of the
same size, all of which die microseconds later.  The arena keeps those short-lived workspaces
alive in a free-pool keyed by ``(shape, dtype)`` so steady-state
adaptation loops — which see the same batch/feature shapes every batch —
stop allocating after the first iteration.

Safety contract: only buffers that provably do not escape an op may be
released back to the pool.  Backends release (a) padded-input copies
once the autograd closure that captured them has run (or immediately,
when no graph is recorded) and (b) the im2col patches and the
column-gradient scratch consumed by col2im before the kernel returns.  Everything that escapes (op outputs, gradients handed to
``Tensor._send_grad``) is allocated fresh.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True)
class ArenaStats:
    """Counters describing how well workspace reuse is working."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    bytes_allocated: int = 0
    bytes_reused: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of acquisitions served from the pool (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0


class WorkspaceArena:
    """Thread-safe free-pool of scratch ndarrays keyed by (shape, dtype).

    ``acquire`` returns an *uninitialised* buffer (contents are whatever
    the previous user left); use :meth:`acquire_zeros` where the op
    depends on zero-fill (e.g. padded-input borders).  ``release`` parks
    a buffer for reuse; releasing the same array twice is a no-op, and
    buffers that are never released are simply garbage-collected.
    """

    def __init__(self, max_buffers_per_key: int = 4):
        self._pool: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        self._pooled_ids: set = set()
        self._lock = threading.Lock()
        self._max_per_key = max_buffers_per_key
        self._requests = 0
        self._hits = 0
        self._bytes_allocated = 0
        self._bytes_reused = 0

    @staticmethod
    def _key(shape, dtype) -> Tuple[Tuple[int, ...], str]:
        return tuple(int(s) for s in shape), np.dtype(dtype).str

    def acquire(self, shape, dtype) -> np.ndarray:
        """Return a contiguous scratch array of ``shape``/``dtype``."""
        key = self._key(shape, dtype)
        with self._lock:
            self._requests += 1
            bucket = self._pool.get(key)
            if bucket:
                buf = bucket.pop()
                self._pooled_ids.discard(id(buf))
                self._hits += 1
                self._bytes_reused += buf.nbytes
                return buf
        buf = np.empty(key[0], dtype=np.dtype(dtype))
        with self._lock:
            self._bytes_allocated += buf.nbytes
        return buf

    def acquire_zeros(self, shape, dtype) -> np.ndarray:
        """Like :meth:`acquire` but zero-filled (bit-identical to np.zeros)."""
        buf = self.acquire(shape, dtype)
        buf.fill(0)
        return buf

    def release(self, array: np.ndarray) -> None:
        """Park ``array`` for reuse.  Views and foreign arrays are refused
        (a view's base may still be live elsewhere)."""
        if array.base is not None or not array.flags["C_CONTIGUOUS"]:
            return
        key = self._key(array.shape, array.dtype)
        with self._lock:
            if id(array) in self._pooled_ids:
                return  # double release
            bucket = self._pool.setdefault(key, [])
            if len(bucket) < self._max_per_key:
                bucket.append(array)
                self._pooled_ids.add(id(array))

    def stats(self) -> ArenaStats:
        """Snapshot the reuse counters."""
        with self._lock:
            return ArenaStats(
                requests=self._requests,
                hits=self._hits,
                misses=self._requests - self._hits,
                bytes_allocated=self._bytes_allocated,
                bytes_reused=self._bytes_reused,
            )

    def clear(self) -> None:
        """Drop all pooled buffers and reset the counters."""
        with self._lock:
            self._pool.clear()
            self._pooled_ids.clear()
            self._requests = self._hits = 0
            self._bytes_allocated = self._bytes_reused = 0

    def pooled_buffers(self) -> int:
        """Number of buffers currently parked (diagnostics/tests)."""
        with self._lock:
            return sum(len(b) for b in self._pool.values())
