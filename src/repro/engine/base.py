"""Execution-backend interface and active-backend context management.

A :class:`Backend` owns the handful of leaf kernels the paper's models
actually spend their time in — convolution forward/backward, matmul,
batch-norm statistics, pooling — operating on plain ``numpy.ndarray``
inputs (the autograd layer in :mod:`repro.tensor` stays backend-agnostic
and routes its heavy ops through the active backend).  A new kernel is
declared on ``Backend`` and implemented in
:class:`~repro.engine.numpy_backend.NumpyBackend`, and nowhere else:
:class:`DelegatingBackend`, the base of the wrappers that observe
another backend (timing, numeric validation), forwards every kernel
through one hook.

The active backend is selected with :func:`use_backend`, a thread-local,
nestable context manager mirroring ``no_grad``::

    with use_backend(InstrumentedBackend(NumpyBackend())):
        logits = model(x)          # conv/matmul are timed
        loss.backward()            # backward uses the same backend

An op's backward closure captures the backend that produced its forward
pass, so gradients are computed by the same backend even if the context
has exited by the time ``backward()`` runs.
"""

from __future__ import annotations

import abc
import contextlib
import threading
from typing import Any, Callable, Iterator, Optional, Tuple

import numpy as np

from repro.engine.arena import ArenaStats, WorkspaceArena


class Backend(abc.ABC):
    """Leaf-kernel interface all execution backends implement.

    Shapes follow the engine's NCHW convention.  ``stride`` arguments are
    ``(sh, sw)`` pairs and inputs to the conv kernels are *already
    padded*; padding (and the autograd bookkeeping) stays in
    :mod:`repro.tensor.conv`.
    """

    #: canonical name recorded on MeasurementRecords and bench output
    name: str = "base"

    def __init__(self) -> None:
        self.arena = WorkspaceArena()

    # -- convolution ---------------------------------------------------
    @abc.abstractmethod
    def conv2d_forward(self, xp: np.ndarray, weight: np.ndarray,
                       stride: Tuple[int, int], groups: int) -> np.ndarray:
        """Convolve padded input (N, C, H, W) with weight (Co, C/g, kh, kw)."""

    @abc.abstractmethod
    def conv2d_backward(self, grad: np.ndarray, xp: np.ndarray,
                        weight: np.ndarray, stride: Tuple[int, int],
                        groups: int, need_input_grad: bool,
                        need_weight_grad: bool
                        ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Return ``(d_input_padded, d_weight)`` (entries None when not needed)."""

    # -- dense ---------------------------------------------------------
    @abc.abstractmethod
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product ``a @ b`` (the Linear layer and its backward)."""

    # -- batch norm ----------------------------------------------------
    @abc.abstractmethod
    def batchnorm_stats(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-channel ``(mean, biased var)`` over the (N, H, W) axes."""

    # -- pooling -------------------------------------------------------
    @abc.abstractmethod
    def max_pool2d_forward(self, x: np.ndarray, kernel: Tuple[int, int],
                           stride: Tuple[int, int]
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(out, argmax)`` — argmax indexes the kh*kw window axis."""

    @abc.abstractmethod
    def max_pool2d_backward(self, grad: np.ndarray, arg: np.ndarray,
                            x_shape: Tuple[int, ...], kernel: Tuple[int, int],
                            stride: Tuple[int, int]) -> np.ndarray:
        """Scatter ``grad`` back through the argmax windows."""

    @abc.abstractmethod
    def avg_pool2d_forward(self, x: np.ndarray, kernel: Tuple[int, int],
                           stride: Tuple[int, int]) -> np.ndarray:
        """Window-mean pooling forward."""

    @abc.abstractmethod
    def avg_pool2d_backward(self, grad: np.ndarray, x_shape: Tuple[int, ...],
                            kernel: Tuple[int, int],
                            stride: Tuple[int, int]) -> np.ndarray:
        """Spread ``grad / (kh*kw)`` uniformly back over each window."""

    # -- workspace -----------------------------------------------------
    def pad_input(self, x: np.ndarray, ph: int, pw: int) -> np.ndarray:
        """Zero-pad spatial dims into an arena workspace (caller releases)."""
        n, c, h, w = x.shape
        buf = self.arena.acquire_zeros((n, c, h + 2 * ph, w + 2 * pw), x.dtype)
        buf[:, :, ph:ph + h, pw:pw + w] = x
        return buf

    def arena_stats(self) -> ArenaStats:
        """Scratch-buffer reuse counters for this backend."""
        return self.arena.stats()

    def close(self) -> None:
        """Release pooled workspaces."""
        self.arena.clear()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


#: every kernel a backend dispatches: ``Backend``'s abstract methods in
#: declaration order, then the workspace kernel ``pad_input``
KERNELS: Tuple[str, ...] = tuple(
    name for name, attr in vars(Backend).items()
    if getattr(attr, "__isabstractmethod__", False)) + ("pad_input",)


def _forwarder(op: str) -> Callable[..., Any]:
    """The ``op`` method of :class:`DelegatingBackend`."""

    def kernel(self: "DelegatingBackend", *args: Any) -> Any:
        return self._call(op, getattr(self.inner, op), *args)

    kernel.__name__ = op
    kernel.__qualname__ = f"DelegatingBackend.{op}"
    kernel.__doc__ = getattr(Backend, op).__doc__
    return kernel


class DelegatingBackend(Backend):
    """A backend that hands every kernel to an ``inner`` backend.

    Each name in :data:`KERNELS` becomes ``self._call(op, fn, *args)``
    with ``fn`` the inner backend's kernel, so a wrapper that observes
    the engine overrides the one :meth:`_call` hook and sees every
    kernel, including any later declared on :class:`Backend`.  Kernels
    are forwarded positionally, the way the autograd layer calls them.
    The wrapper shares the inner backend's arena (so ``arena_stats()``
    reports the real reuse) and its name.
    """

    def __init__(self, inner: Backend):
        # no super().__init__(): the wrapper shares the inner backend's
        # arena rather than owning a second one
        self.inner = inner
        self.arena = inner.arena

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    def _call(self, op: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run kernel ``op`` as ``fn(*args)``, ``fn`` being the inner one's."""
        return fn(*args)

    # generated rather than written out, so that ABCMeta sees every
    # abstract kernel implemented when it builds the class
    locals().update({op: _forwarder(op) for op in KERNELS})

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


# ---------------------------------------------------------------------------
# Active-backend selection (thread-local stack over a process default)
# ---------------------------------------------------------------------------

_TLS = threading.local()
_DEFAULT_LOCK = threading.Lock()
_DEFAULT_BACKEND: Optional[Backend] = None


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


def default_backend() -> Backend:
    """The process-wide fallback backend (a lazily-built NumpyBackend)."""
    global _DEFAULT_BACKEND
    if _DEFAULT_BACKEND is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_BACKEND is None:
                from repro.engine.numpy_backend import NumpyBackend
                _DEFAULT_BACKEND = NumpyBackend()
    return _DEFAULT_BACKEND


def set_default_backend(backend: Optional[Backend]) -> None:
    """Replace the process-wide fallback (None restores NumpyBackend)."""
    global _DEFAULT_BACKEND
    with _DEFAULT_LOCK:
        _DEFAULT_BACKEND = backend


def get_backend() -> Backend:
    """The backend ops should dispatch to in the current thread."""
    stack = getattr(_TLS, "stack", None)
    if stack:
        return stack[-1]
    return default_backend()


@contextlib.contextmanager
def use_backend(backend: Backend) -> Iterator[Backend]:
    """Make ``backend`` active inside the block (thread-local, nestable).

    Composes with :func:`repro.tensor.no_grad` in either nesting order
    and restores the previous backend even when the block raises.  Other
    threads are unaffected: each thread has its own stack and falls back
    to the process default.
    """
    stack = _stack()
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()
