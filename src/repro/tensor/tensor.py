"""Core autograd tensor.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records, for every
operation, the parent tensors and a backward closure.  Calling
:meth:`Tensor.backward` runs a reverse topological traversal and
accumulates gradients into ``.grad`` (a plain ndarray), mirroring the
PyTorch semantics the paper's BN-Opt (TENT) algorithm relies on.

Only the operations needed by the reproduction are implemented, but each
supports full broadcasting and arbitrary batch shapes.  Heavyweight fused
ops (convolution, pooling, batch-norm, softmax losses) live in
:mod:`repro.tensor.conv` and :mod:`repro.tensor.functional`; they attach to
the same graph machinery through :func:`Tensor._from_op`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

# Grad mode is thread-local (like PyTorch's): disabling it inside one
# thread — e.g. an inference stream — must not leak into worker threads
# or other concurrent streams, and it composes with the engine's
# thread-local `use_backend` stack in either nesting order.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the ``with`` block (like torch.no_grad).

    Nestable and exception-safe: the previous mode is restored when the
    block exits, even via ``raise``.  The mode is per-thread; other
    threads continue to record graphs.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return True when operations record the autograd graph (this thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


def records_graph(parents: Iterable["Tensor"]) -> bool:
    """Whether an op over ``parents`` records a graph node (grad mode is
    on and some parent requires grad), i.e. whether its backward runs."""
    return is_grad_enabled() and any(p.requires_grad for p in parents)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


ArrayLike = Union["Tensor", np.ndarray, float, int]


class Tensor:
    """A numpy-backed autograd tensor.

    Parameters
    ----------
    data:
        Array data (copied only if not already an ndarray of float dtype).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` for this
        tensor during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_grad_sink")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind in "iub":
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a graph node.

        ``backward`` receives the upstream gradient and is responsible for
        calling :meth:`_accumulate` on each parent that requires grad.
        When autograd is disabled, or no parent requires grad, the result
        is a detached leaf.
        """
        requires = records_graph(parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer."""
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (and must be omitted only for scalar
        outputs, matching PyTorch's contract).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf: accumulate into .grad
                node._accumulate(node_grad)
                continue
            # Interior node: delegate to the op's backward, which calls
            # parent._accumulate. To keep interior accumulation in the
            # `grads` dict (so diamonds sum before propagating), we
            # temporarily intercept.
            node._run_backward(node_grad, grads)

        # Any remaining buffered grads belong to leaves reached via
        # interception; flush them.
        for node in reversed(topo):
            pending = grads.pop(id(node), None)
            if pending is not None:
                node._accumulate(pending)

    def _run_backward(self, node_grad: np.ndarray, grads: dict) -> None:
        """Invoke this node's backward closure, routing parent grads.

        Interior parents buffer into ``grads`` (summing fan-in); leaf
        parents accumulate directly into ``.grad``.
        """
        contributions: list[Tuple[Tensor, np.ndarray]] = []

        def route(parent: Tensor, g: np.ndarray) -> None:
            contributions.append((parent, g))

        # The backward closures call parent._accumulate; monkey-patching a
        # bound method per-call is fragile, so instead closures are written
        # against `_send_grad(parent, g)` on the output tensor.
        self._grad_sink = route  # type: ignore[attr-defined]
        try:
            self._backward(node_grad)  # type: ignore[misc]
        finally:
            del self._grad_sink  # type: ignore[attr-defined]
        for parent, g in contributions:
            g = _unbroadcast(np.asarray(g), parent.data.shape)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g

    def _send_grad(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Used by op backward closures to hand a gradient to a parent."""
        if not parent.requires_grad:
            return
        sink = getattr(self, "_grad_sink", None)
        if sink is not None:
            sink(parent, grad)
        else:  # pragma: no cover - direct invocation outside backward()
            parent._accumulate(grad)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: ArrayLike, like: "Tensor") -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(np.asarray(value, dtype=like.data.dtype))

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other, self)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad)
            out._send_grad(other, grad)

        out = Tensor._from_op(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, -grad)

        out = Tensor._from_op(-self.data, (self,), backward)
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-Tensor._coerce(other, self))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor._coerce(other, self) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other, self)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad * other.data)
            out._send_grad(other, grad * self.data)

        out = Tensor._from_op(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = Tensor._coerce(other, self)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad / other.data)
            out._send_grad(other, -grad * self.data / (other.data ** 2))

        out = Tensor._from_op(out_data, (self, other), backward)
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor._coerce(other, self) / self

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad * exponent * self.data ** (exponent - 1.0))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product supporting 2-D x 2-D (the case the models use).

        Dispatches to the active execution backend (captured at forward
        time so the backward pass runs on the same backend).
        """
        from repro.engine.base import get_backend  # deferred: keeps tensor importable standalone
        backend = get_backend()
        other = Tensor._coerce(other, self)
        out_data = backend.matmul(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, backend.matmul(
                grad, other.data.swapaxes(-1, -2)))
            out._send_grad(other, backend.matmul(
                self.data.swapaxes(-1, -2), grad))

        out = Tensor._from_op(out_data, (self, other), backward)
        return out

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad.reshape(original))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad.transpose(inverse))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def flatten(self, start_dim: int = 1) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onward (like torch.flatten)."""
        lead = self.data.shape[:start_dim]
        return self.reshape(lead + (-1,))

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            out._send_grad(self, full)

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def pad2d(self, padding: Tuple[int, int]) -> "Tensor":
        """Zero-pad the last two (spatial) dims by (pad_h, pad_w) each side."""
        ph, pw = padding
        if ph == 0 and pw == 0:
            return self
        width = [(0, 0)] * (self.data.ndim - 2) + [(ph, ph), (pw, pw)]
        out_data = np.pad(self.data, width)

        def backward(grad: np.ndarray) -> None:
            sl = (Ellipsis, slice(ph, grad.shape[-2] - ph), slice(pw, grad.shape[-1] - pw))
            out._send_grad(self, grad[sl])

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            out._send_grad(self, np.broadcast_to(g, self.data.shape))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient evenly among ties, matching numpy semantics
            # closely enough for pooling use.
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            out._send_grad(self, mask * g / denom)

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Pointwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        """``max(x, 0)`` on the active backend; NaN maps to 0."""
        from repro.engine.base import get_backend  # deferred, as in matmul
        out_data = get_backend().relu(self.data)
        if not records_graph((self,)):
            return Tensor(out_data)
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad * mask)

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad * out_data)

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad / self.data)

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad * out_data * (1.0 - out_data))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad * (1.0 - out_data ** 2))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            out._send_grad(self, grad * mask)

        out = Tensor._from_op(out_data, (self,), backward)
        return out


def tensor(data, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    """Construct a :class:`Tensor` from array-like data with a given dtype."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * grad.ndim
            sl[axis] = slice(start, stop)
            out._send_grad(t, grad[tuple(sl)])

    out = Tensor._from_op(out_data, tensors, backward)
    return out
