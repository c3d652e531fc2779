"""ASan-style numeric sanitizer for the execution engine.

:class:`SanitizerBackend` wraps any :class:`~repro.engine.base.Backend`
and validates every leaf op's inputs and outputs — NaN/Inf, dtype drift
away from the engine's float32 convention, and shape-contract violations
— attributing each violation to the exact op invocation and argument
where it first appears.  Validation only *reads* the arrays, so a clean
run is bit-for-bit identical to running the inner backend directly.

Two modes:

- record (default): findings accumulate on ``backend.findings`` and the
  computation proceeds untouched — the mode the native study and the
  robustness tests use to show *where* an injected fault enters the
  engine while the guard layer handles recovery.
- ``fail_fast=True``: the first finding raises
  :class:`NumericFaultError` — the mode for pinning "this computation
  is finite" in tests.

Select it as ``--backend sanitize`` on the CLI (it wraps the reference
:class:`~repro.engine.numpy_backend.NumpyBackend`); ``stream`` and
``native`` print its findings when they end.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.engine.base import KERNELS, Backend, DelegatingBackend


@dataclass(frozen=True)
class SanitizerFinding:
    """One numeric-contract violation at a specific op invocation."""

    op: str          #: kernel name, e.g. ``"conv2d_forward"``
    call_index: int  #: 0-based invocation count of that kernel
    argument: str    #: which array — an input name or ``"out"``/``"out[i]"``
    kind: str        #: ``"nan"`` / ``"inf"`` / ``"dtype"`` / ``"shape"`` / ``"range"``
    detail: str      #: human-readable specifics (counts, first index, shapes)

    def describe(self) -> str:
        return (f"{self.op}[call {self.call_index}] {self.argument}: "
                f"{self.kind} — {self.detail}")


class NumericFaultError(RuntimeError):
    """Raised in ``fail_fast`` mode on the first sanitizer finding."""

    def __init__(self, finding: SanitizerFinding):
        super().__init__(finding.describe())
        self.finding = finding


# -- per-kernel contracts ----------------------------------------------

def _window_shape(x_shape, channels, kernel, stride) -> Tuple[int, ...]:
    """``(N, channels, Ho, Wo)`` of an unpadded window op over ``x_shape``."""
    n, _, h, w = x_shape
    (kh, kw), (sh, sw) = kernel, stride
    return (n, channels, (h - kh) // sh + 1, (w - kw) // sw + 1)


def _pooled(x, kernel, stride):
    return (_window_shape(x.shape, x.shape[1], kernel, stride),)


def _conv_channels(xp, weight, stride, groups):
    expected = weight.shape[1] * groups
    if expected != xp.shape[1]:
        return "weight", (f"weight expects {expected} input channels "
                          f"(groups={groups}) but input has {xp.shape[1]}")
    return None


def _contraction(a, b):
    if a.ndim >= 2 and b.ndim >= 2 and a.shape[-1] != b.shape[-2]:
        return "b", f"inner dimensions do not contract: {a.shape} @ {b.shape}"
    return None


class KernelContract(NamedTuple):
    """One kernel's checks beyond its array arguments.

    The callables take the kernel's arguments.  ``before`` and
    ``after`` return an ``(argument, detail)`` shape violation or None;
    they run before and after the inner kernel.
    """

    #: result names, in order (None: ``out``, or ``out[i]`` for several;
    #: ``()`` leaves the results unchecked)
    outputs: Optional[Tuple[str, ...]] = None
    shapes: Optional[Callable[..., tuple]] = None  #: expected result shapes
    before: Optional[Callable[..., Optional[Tuple[str, str]]]] = None
    after: Optional[Callable[..., Optional[Tuple[str, str]]]] = None
    variance: Optional[str] = None  #: the result that cannot be negative


#: kernel name -> contract; a kernel without an entry still has its
#: array arguments and results checked, under no shape contract
CONTRACTS: Dict[str, KernelContract] = {
    "conv2d_forward": KernelContract(
        shapes=lambda xp, weight, stride, groups: (_window_shape(
            xp.shape, weight.shape[0], weight.shape[2:], stride),),
        after=_conv_channels),
    "conv2d_backward": KernelContract(
        outputs=("out[d_input]", "out[d_weight]"),
        shapes=lambda grad, xp, weight, *_: (xp.shape, weight.shape)),
    "matmul": KernelContract(before=_contraction),
    "batchnorm_stats": KernelContract(
        outputs=("out[mean]", "out[var]"),
        shapes=lambda x: ((x.shape[1],) if x.ndim >= 2 else None,) * 2,
        variance="out[var]"),
    # the argmax (second result) is an index array, not a value
    "max_pool2d_forward": KernelContract(outputs=("out",), shapes=_pooled),
    "max_pool2d_backward": KernelContract(
        shapes=lambda grad, arg, x_shape, *_: (tuple(x_shape),)),
    "avg_pool2d_forward": KernelContract(shapes=_pooled),
    "avg_pool2d_backward": KernelContract(
        shapes=lambda grad, x_shape, *_: (tuple(x_shape),)),
    # the padded copy holds the checked input plus zeros
    "pad_input": KernelContract(outputs=()),
}

#: kernel name -> its parameter names on Backend, as findings name them
_PARAMETERS: Dict[str, Tuple[str, ...]] = {
    op: tuple(inspect.signature(getattr(Backend, op)).parameters)[1:]
    for op in KERNELS}


class SanitizerBackend(DelegatingBackend):
    """Delegating wrapper that validates every kernel's arrays.

    Each call checks the kernel's array arguments under their parameter
    names on :class:`~repro.engine.base.Backend`, then the kernel's
    :data:`CONTRACTS` entry around the inner call, then its results.
    Shares the inner backend's arena (like
    :class:`~repro.engine.instrument.InstrumentedBackend`) and returns
    the inner backend's results unmodified.
    """

    name = "sanitize"

    def __init__(self, inner: Optional[Backend] = None, *,
                 dtype: np.dtype = np.float32, fail_fast: bool = False,
                 max_findings: int = 1000):
        if inner is None:
            from repro.engine.numpy_backend import NumpyBackend
            inner = NumpyBackend()
        super().__init__(inner)
        self.dtype = np.dtype(dtype)
        self.fail_fast = fail_fast
        self.max_findings = max_findings
        self.findings: List[SanitizerFinding] = []
        self.truncated = False
        self._calls: Dict[str, int] = {}

    # -- recording ------------------------------------------------------
    def clear(self) -> None:
        """Drop accumulated findings and invocation counters."""
        self.findings = []
        self.truncated = False
        self._calls = {}

    def describe(self) -> str:
        if not self.findings:
            return "sanitizer: clean (no findings)"
        lines = [finding.describe() for finding in self.findings]
        if self.truncated:
            lines.append(f"... findings truncated at {self.max_findings}")
        lines.append(f"sanitizer: {len(self.findings)} finding(s)")
        return "\n".join(lines)

    def _record(self, op: str, index: int, argument: str, kind: str,
                detail: str) -> None:
        finding = SanitizerFinding(op=op, call_index=index,
                                   argument=argument, kind=kind,
                                   detail=detail)
        if self.fail_fast:
            raise NumericFaultError(finding)
        if len(self.findings) < self.max_findings:
            self.findings.append(finding)
        else:
            self.truncated = True

    # -- array validation ----------------------------------------------
    def _check(self, op: str, index: int, argument: str,
               array: np.ndarray,
               expect_shape: Optional[Tuple[int, ...]] = None,
               variance: bool = False) -> None:
        if expect_shape is not None and tuple(array.shape) != expect_shape:
            self._record(op, index, argument, "shape",
                         f"shape {tuple(array.shape)} violates the op "
                         f"contract (expected {expect_shape})")
        if not np.issubdtype(array.dtype, np.floating):
            return                    # integer arrays (argmax) are exempt
        if array.dtype != self.dtype:
            self._record(op, index, argument, "dtype",
                         f"dtype drifted to {array.dtype} (engine "
                         f"convention is {self.dtype})")
        if not np.isfinite(array).all():
            nan_count = int(np.isnan(array).sum())
            inf_count = int(np.isinf(array).sum())
            bad = ~np.isfinite(array)
            first = int(np.flatnonzero(bad.ravel())[0])
            if nan_count:
                self._record(op, index, argument, "nan",
                             f"{nan_count} NaN value(s) (first at flat "
                             f"index {first} of shape {tuple(array.shape)})")
            if inf_count:
                self._record(op, index, argument, "inf",
                             f"{inf_count} Inf value(s) (first at flat "
                             f"index {first} of shape {tuple(array.shape)})")
        if variance and (array < 0).any():
            self._record(op, index, argument, "range",
                         f"{int((array < 0).sum())} negative variance "
                         "value(s) — numerically impossible for a "
                         "correct reduction")

    def _violation(self, op: str, index: int, check, args) -> None:
        found = check(*args) if check is not None else None
        if found is not None:
            self._record(op, index, found[0], "shape", found[1])

    def _call(self, op: str, fn, *args):
        index = self._calls.get(op, 0)
        self._calls[op] = index + 1
        contract = CONTRACTS.get(op, KernelContract())
        for argument, value in zip(_PARAMETERS[op], args):
            if isinstance(value, np.ndarray):
                self._check(op, index, argument, value)
        self._violation(op, index, contract.before, args)
        result = fn(*args)
        self._violation(op, index, contract.after, args)
        results = result if isinstance(result, tuple) else (result,)
        names = contract.outputs
        if names is None:
            names = ([f"out[{i}]" for i in range(len(results))]
                     if len(results) > 1 else ["out"])
        shapes = contract.shapes(*args) if contract.shapes else repeat(None)
        for argument, value, shape in zip(names, results, shapes):
            if value is not None:
                self._check(op, index, argument, value, shape,
                            variance=argument == contract.variance)
        return result

    def __repr__(self) -> str:
        return f"SanitizerBackend({self.inner!r}, fail_fast={self.fail_fast})"
