"""Batch-sharded threaded backend.

Numpy releases the GIL inside BLAS calls and its array copy loops — the
im2col gather and the ``matmul`` that make up a conv kernel — so
sharding the batch dimension across a ``ThreadPoolExecutor`` gives real
parallelism for the conv and matmul leaf ops that dominate the paper's
edge-CPU latency breakdowns — without any native code.

Determinism: shards cover contiguous, disjoint batch slices.  Outputs
and input gradients are written into disjoint slices of a preallocated
result (no reduction at all), and the weight gradient is reduced by
summing per-shard partials **in shard-index order**, independent of
thread completion order.  Results therefore match
:class:`~repro.engine.numpy_backend.NumpyBackend` exactly for forward /
input-grad paths and to floating-point reassociation (~1e-6 in float32)
for the weight gradient — which is why the cross-backend gradcheck suite
passes unchanged.

While its pool exists the backend holds BLAS at one thread
(:mod:`repro.engine.blas`): the shards are the parallelism, and each
shard's ``matmul`` waking a per-core BLAS pool would only oversubscribe
the cores the shards already occupy.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.blas import SingleBlasThread
from repro.engine.numpy_backend import NumpyBackend


def _cpu_count() -> int:
    return os.cpu_count() or 1


class ThreadedBackend(NumpyBackend):
    """Shards conv forward/backward and matmul over the batch dimension.

    Parameters
    ----------
    threads:
        Worker count; ``0`` (default) uses ``os.cpu_count()``.
    min_shard:
        Smallest per-worker batch slice worth dispatching.  Batches
        smaller than ``2 * min_shard`` fall back to the inherited
        single-threaded kernels (thread fan-out costs more than it buys
        on tiny inputs).
    """

    name = "threaded"

    def __init__(self, threads: int = 0, min_shard: int = 8):
        super().__init__()
        self.threads = int(threads) if threads else _cpu_count()
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.min_shard = max(1, int(min_shard))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._blas: Optional[SingleBlasThread] = None

    # -- pool management -----------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._blas = SingleBlasThread()
            self._pool = ThreadPoolExecutor(
                max_workers=self.threads,
                thread_name_prefix="repro-engine")
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._blas.release()
            self._blas = None
        super().close()

    def _shards(self, n: int) -> List[Tuple[int, int]]:
        """Contiguous batch slices, one per worker (empty => no sharding)."""
        if self.threads < 2 or n < 2 * self.min_shard:
            return []
        workers = min(self.threads, max(1, n // self.min_shard))
        if workers < 2:
            return []
        bounds = np.linspace(0, n, workers + 1, dtype=int)
        return [(int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def _map(self, fn, shards) -> list:
        """Run ``fn`` over shards on the pool, results in shard order."""
        return list(self._executor().map(fn, shards))

    # -- convolution ---------------------------------------------------
    def conv2d_forward(self, xp: np.ndarray, weight: np.ndarray,
                       stride: Tuple[int, int], groups: int) -> np.ndarray:
        n = xp.shape[0]
        shards = self._shards(n)
        if not shards:
            return super().conv2d_forward(xp, weight, stride, groups)
        sh, sw = stride
        co, _, kh, kw = weight.shape
        ho = (xp.shape[2] - kh) // sh + 1
        wo = (xp.shape[3] - kw) // sw + 1
        out = np.empty((n, co, ho, wo), dtype=xp.dtype)

        def run(bounds: Tuple[int, int]) -> None:
            lo, hi = bounds
            out[lo:hi] = NumpyBackend.conv2d_forward(
                self, xp[lo:hi], weight, stride, groups)

        self._map(run, shards)
        return out

    def conv2d_backward(self, grad: np.ndarray, xp: np.ndarray,
                        weight: np.ndarray, stride: Tuple[int, int],
                        groups: int, need_input_grad: bool,
                        need_weight_grad: bool
                        ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        n = xp.shape[0]
        shards = self._shards(n)
        if not shards:
            return super().conv2d_backward(grad, xp, weight, stride, groups,
                                           need_input_grad, need_weight_grad)
        dxp = np.empty(xp.shape, dtype=grad.dtype) if need_input_grad else None

        def run(bounds: Tuple[int, int]) -> Optional[np.ndarray]:
            lo, hi = bounds
            dxp_s, dw_s = NumpyBackend.conv2d_backward(
                self, grad[lo:hi], xp[lo:hi], weight, stride, groups,
                need_input_grad, need_weight_grad)
            if dxp_s is not None:
                dxp[lo:hi] = dxp_s
            return dw_s

        partial_dws = self._map(run, shards)
        dw = None
        if need_weight_grad:
            # Deterministic reduction: fixed shard-index order.
            dw = partial_dws[0].copy()
            for part in partial_dws[1:]:
                dw += part
        return dxp, dw

    # -- dense ---------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim != 2 or b.ndim != 2:
            return super().matmul(a, b)
        shards = self._shards(a.shape[0])
        if not shards:
            return super().matmul(a, b)
        out = np.empty((a.shape[0], b.shape[1]),
                       dtype=np.result_type(a.dtype, b.dtype))

        def run(bounds: Tuple[int, int]) -> None:
            lo, hi = bounds
            out[lo:hi] = a[lo:hi] @ b

        self._map(run, shards)
        return out

    def __repr__(self) -> str:
        return f"ThreadedBackend(threads={self.threads})"
