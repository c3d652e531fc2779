"""DelegatingBackend: every kernel of ``Backend`` reaches both wrappers.

One table of valid arguments per kernel drives every test, so a kernel
declared on ``Backend`` without an entry here fails the first test.
"""

import inspect

import numpy as np
import pytest

from repro.analysis.sanitize import SanitizerBackend
from repro.engine import InstrumentedBackend, NumpyBackend
from repro.engine.base import KERNELS, Backend, DelegatingBackend


def _f32(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape).astype(
        np.float32)


def _argmax():
    _, arg = NumpyBackend().max_pool2d_forward(_f32(0, 2, 3, 8, 8),
                                               (2, 2), (2, 2))
    return arg


#: kernel -> builder of valid positional arguments
ARGS = {
    "conv2d_forward": lambda: [_f32(1, 2, 3, 10, 10), _f32(2, 4, 3, 3, 3),
                               (1, 1), 1],
    "conv2d_backward": lambda: [_f32(3, 2, 4, 8, 8), _f32(4, 2, 3, 10, 10),
                                _f32(5, 4, 3, 3, 3), (1, 1), 1, True, True],
    "matmul": lambda: [_f32(6, 3, 4), _f32(7, 4, 5)],
    "batchnorm_stats": lambda: [_f32(8, 4, 3, 5, 5)],
    "max_pool2d_forward": lambda: [_f32(9, 2, 3, 8, 8), (2, 2), (2, 2)],
    "max_pool2d_backward": lambda: [_f32(10, 2, 3, 4, 4), _argmax(),
                                    (2, 3, 8, 8), (2, 2), (2, 2)],
    "avg_pool2d_forward": lambda: [_f32(11, 2, 3, 8, 8), (2, 2), (2, 2)],
    "avg_pool2d_backward": lambda: [_f32(12, 2, 3, 4, 4), (2, 3, 8, 8),
                                    (2, 2), (2, 2)],
    "pad_input": lambda: [_f32(13, 2, 3, 8, 8), 1, 1],
}

#: kernel -> the names the sanitizer checks its results under
OUTPUTS = {
    "conv2d_forward": ("out",),
    "conv2d_backward": ("out[d_input]", "out[d_weight]"),
    "matmul": ("out",),
    "batchnorm_stats": ("out[mean]", "out[var]"),
    "max_pool2d_forward": ("out",),        # the argmax is an index array
    "max_pool2d_backward": ("out",),
    "avg_pool2d_forward": ("out",),
    "avg_pool2d_backward": ("out",),
    "pad_input": (),
}

#: kernels whose contract fixes the shape of every checked result
#: (matmul's is the contraction of its inputs, checked before the call)
SHAPED = tuple(op for op in KERNELS if op not in ("matmul", "pad_input"))

#: (kernel, argument name, position) for every float array argument
FLOAT_ARGUMENTS = [
    (op, name, position)
    for op in KERNELS
    for position, (name, value) in enumerate(zip(
        list(inspect.signature(getattr(Backend, op)).parameters)[1:],
        ARGS[op]()))
    if isinstance(value, np.ndarray) and value.dtype.kind == "f"]


class Stub:
    """Inner backend whose every kernel returns one scripted result."""

    name = "stub"
    arena = None

    def __init__(self, result):
        self.result = result

    def __getattr__(self, op):
        return lambda *args: self.result


def reference(op):
    return getattr(NumpyBackend(), op)(*ARGS[op]())


def as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


def test_forwards_exactly_the_backend_kernels():
    assert set(KERNELS) == set(Backend.__abstractmethods__) | {"pad_input"}
    assert all(op in vars(DelegatingBackend) for op in KERNELS)
    assert ARGS.keys() == OUTPUTS.keys() == set(KERNELS)
    for wrapper in (InstrumentedBackend, SanitizerBackend):
        assert not [op for op in KERNELS if op in vars(wrapper)]


@pytest.mark.parametrize("op", KERNELS)
def test_instrumented_counts_every_call(op):
    inst = InstrumentedBackend(NumpyBackend())
    for _ in range(2):
        getattr(inst, op)(*ARGS[op]())
    assert {name: stat.calls for name, stat in inst.op_stats.items()} == \
        {op: 2}


@pytest.mark.parametrize("op", KERNELS)
def test_sanitizer_hook_sees_every_call(op):
    seen = []

    class Spy(SanitizerBackend):
        def _call(self, name, fn, *args):
            seen.append(name)
            return super()._call(name, fn, *args)

    sanitizer = Spy(NumpyBackend())
    for _ in range(2):
        result = getattr(sanitizer, op)(*ARGS[op]())
    assert seen == [op, op]
    assert sanitizer.findings == []
    for got, want in zip(as_tuple(result), as_tuple(reference(op))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("op, argument, position", FLOAT_ARGUMENTS)
def test_nan_argument_is_named(op, argument, position):
    args = ARGS[op]()
    args[position] = args[position].copy()
    args[position].flat[1] = np.nan
    sanitizer = SanitizerBackend(Stub(reference(op)))
    getattr(sanitizer, op)(*args)
    assert [(f.op, f.call_index, f.argument, f.kind)
            for f in sanitizer.findings] == [(op, 0, argument, "nan")]


@pytest.mark.parametrize("op", KERNELS)
def test_nan_result_is_named(op):
    poisoned = tuple(np.full_like(value, np.nan)
                     if value.dtype.kind == "f" else value
                     for value in as_tuple(reference(op)))
    result = poisoned if len(poisoned) > 1 else poisoned[0]
    sanitizer = SanitizerBackend(Stub(result))
    getattr(sanitizer, op)(*ARGS[op]())
    assert [(f.argument, f.kind) for f in sanitizer.findings] == \
        [(name, "nan") for name in OUTPUTS[op]]


@pytest.mark.parametrize("op", SHAPED + ("pad_input",))
def test_wrong_shaped_result_is_named(op):
    cut = tuple(value[..., :1] for value in as_tuple(reference(op)))
    result = cut if len(cut) > 1 else cut[0]
    sanitizer = SanitizerBackend(Stub(result))
    getattr(sanitizer, op)(*ARGS[op]())
    assert [(f.argument, f.kind) for f in sanitizer.findings] == \
        [(name, "shape") for name in OUTPUTS[op]]
