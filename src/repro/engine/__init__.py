"""Pluggable execution-backend layer for the numpy engine.

The autograd substrate (:mod:`repro.tensor`) defines *what* the leaf ops
compute; this package decides *how* they execute.  Every heavy kernel —
conv2d forward/backward, matmul, batch-norm statistics, ReLU, pooling —
routes through the active :class:`~repro.engine.base.Backend`:

- :class:`~repro.engine.numpy_backend.NumpyBackend` — the default;
  convolution as an im2col gather plus one batched ``matmul`` per
  direction, bit-for-bit the einsum kernels it replaced (values and
  output memory order), plus a shape-keyed
  :class:`~repro.engine.arena.WorkspaceArena` that reuses the padded
  input, im2col and col2im scratch buffers across calls instead of
  reallocating.
- :class:`~repro.engine.instrument.InstrumentedBackend` — wraps it,
  counting calls, bytes allocated/reused, and per-kernel time for the
  native profiler.

Select a backend with the thread-local, nestable context manager::

    from repro.engine import InstrumentedBackend, NumpyBackend, use_backend

    with use_backend(InstrumentedBackend(NumpyBackend())):
        study = run_native_study(config)

or process-wide via ``set_default_backend`` / the CLI's ``--backend``
flag.  Parallelism lives a layer up, in processes: the serve daemon's
hosts and the sweep's workers each run one backend on one BLAS thread
(:mod:`repro.engine.blas`).
"""

from __future__ import annotations

from repro.engine.arena import ArenaStats, WorkspaceArena
from repro.engine.base import (
    Backend,
    default_backend,
    get_backend,
    set_default_backend,
    use_backend,
)
from repro.engine.instrument import InstrumentedBackend, OpStat
from repro.engine.numpy_backend import NumpyBackend

#: names accepted by :func:`create_backend` and the CLI ``--backend`` flag
BACKEND_NAMES = ("numpy", "sanitize")


def create_backend(name: str) -> Backend:
    """Build a backend by CLI name.

    ``"sanitize"`` wraps the reference NumpyBackend in the numeric
    sanitizer (:class:`~repro.analysis.sanitize.SanitizerBackend`),
    which validates every leaf op's arrays with op-site attribution.
    """
    if name == "numpy":
        return NumpyBackend()
    if name == "sanitize":
        # imported lazily: repro.analysis imports repro.engine.base, so
        # a top-level import here would tie the packages in a cycle
        from repro.analysis.sanitize import SanitizerBackend
        return SanitizerBackend(NumpyBackend())
    raise ValueError(
        f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")


__all__ = [
    "ArenaStats",
    "WorkspaceArena",
    "Backend",
    "NumpyBackend",
    "InstrumentedBackend",
    "OpStat",
    "BACKEND_NAMES",
    "create_backend",
    "default_backend",
    "get_backend",
    "set_default_backend",
    "use_backend",
]
