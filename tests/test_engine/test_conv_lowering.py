"""The im2col + matmul conv kernels against the einsum kernels they replaced.

``EinsumReference`` keeps the three einsum contraction strings the
NumpyBackend used before the lowering.  Where this numpy's einsum runs
a pairwise contraction through ``bmm_einsum`` (one ``matmul``, or a
broadcast multiply for a contraction of length one), the lowering
makes exactly those calls, so outputs must be equal bit for bit and
carry the same strides on every non-unit axis: the layout decides the
order in which batch norm and pooling later sum.  Older numpy runs the
contraction another way (``tensordot`` or ``c_einsum``); there the
kernels are compared with the float32 tolerance below, fixed up front,
and the whole-stream pins are skipped: another summation order,
amplified over eight adapted batches of a randomly initialised
MobileNetV2, moves its BN statistics far past any float32 bound.
"""

import numpy as np
import pytest

from repro.adapt import BNState
from repro.engine import NumpyBackend, use_backend
from repro.engine.numpy_backend import im2col_view
from repro.models import MODEL_NAMES, build_model
from repro.nn import init as nn_init
from repro.serve.session import AdaptationSession
from repro.tensor import Tensor, no_grad


def einsum_runs_matmul() -> bool:
    """Whether ``einsum(optimize=True)`` runs a two-operand contraction
    as one ``matmul`` (or a broadcast multiply) on this numpy."""
    try:
        from numpy._core import einsumfunc
    except ImportError:          # numpy 1.x keeps einsum in numpy.core
        return False
    return hasattr(einsumfunc, "_parse_eq_to_batch_matmul")


EXACT = einsum_runs_matmul()
#: relative float32 tolerance, scaled by the reference's largest value,
#: for numpy versions whose einsum sums in another order
RTOL = 1e-4


def reference_col2im(cols, x_shape, kh, kw, sh, sw):
    """col2im as the einsum kernels had it: NCHW in, NCHW accumulator."""
    ho, wo = cols.shape[-2:]
    dx = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += cols[:, :, i, j]
    return dx


class EinsumReference(NumpyBackend):
    """The conv kernels before the lowering: strided im2col view + einsum."""

    def conv2d_forward(self, xp, weight, stride, groups):
        sh, sw = stride
        n, c = xp.shape[:2]
        co, cig, kh, kw = weight.shape
        view = im2col_view(xp, kh, kw, sh, sw)
        ho, wo = view.shape[-2:]
        cog = co // groups
        vg = view.reshape(n, groups, cig, kh, kw, ho, wo)
        wg = weight.reshape(groups, cog, cig, kh, kw)
        out = np.einsum("gocij,ngcijyx->ngoyx", wg, vg, optimize=True)
        return out.reshape(n, co, ho, wo)

    def conv2d_backward(self, grad, xp, weight, stride, groups,
                        need_input_grad, need_weight_grad):
        sh, sw = stride
        n, c = xp.shape[:2]
        co, cig, kh, kw = weight.shape
        ho, wo = grad.shape[-2:]
        cog = co // groups
        gg = grad.reshape(n, groups, cog, ho, wo)
        wg = weight.reshape(groups, cog, cig, kh, kw)
        dw = dxp = None
        if need_weight_grad:
            vg = im2col_view(xp, kh, kw, sh, sw).reshape(
                n, groups, cig, kh, kw, ho, wo)
            dw = np.einsum("ngoyx,ngcijyx->gocij", gg, vg,
                           optimize=True).reshape(co, cig, kh, kw)
        if need_input_grad:
            dcols = np.empty((n, groups, cig, kh, kw, ho, wo), grad.dtype)
            np.einsum("gocij,ngoyx->ngcijyx", wg, gg, optimize=True,
                      out=dcols)
            dxp = reference_col2im(dcols.reshape(n, c, kh, kw, ho, wo),
                                   xp.shape, kh, kw, sh, sw)
        return dxp, dw


def nonunit_strides(array):
    return [(size, step) for size, step in zip(array.shape, array.strides)
            if size != 1]


def assert_matches(got, ref, what):
    if EXACT:
        np.testing.assert_array_equal(got, ref, err_msg=what)
        assert nonunit_strides(got) == nonunit_strides(ref), what
    else:
        scale = float(np.nanmax(np.abs(ref))) if ref.size else 0.0
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=RTOL * scale,
                                   err_msg=what)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class _Recorder(NumpyBackend):
    def __init__(self):
        super().__init__()
        self.configs = set()

    def conv2d_forward(self, xp, weight, stride, groups):
        self.configs.add((xp.shape, weight.shape, stride, groups))
        return super().conv2d_forward(xp, weight, stride, groups)


def model_conv_configs(name):
    """Every distinct (padded input, weight, stride, groups) of a tiny model
    at batch 16 and 16x16 images."""
    recorder = _Recorder()
    nn_init.seed(0)
    model = build_model(name, "tiny")
    model.eval()
    with use_backend(recorder), no_grad():
        model(Tensor(np.zeros((16, 3, 16, 16), np.float32)))
    return sorted(recorder.configs)


#: (padded input, weight, stride, groups) cases the registry models lack
EXTRA_CONFIGS = [
    ((1, 8, 18, 18), (16, 8, 3, 3), (1, 1), 1),        # n=1
    ((1, 48, 10, 10), (48, 1, 3, 3), (2, 2), 48),      # n=1 depthwise
    ((1, 16, 8, 8), (32, 16, 1, 1), (1, 1), 1),        # n=1 1x1
    ((16, 16, 8, 8), (32, 16, 1, 1), (2, 2), 1),       # 1x1 stride 2
    ((16, 8, 9, 9), (16, 4, 3, 3), (2, 2), 2),         # grouped, stride 2
    ((16, 32, 8, 8), (32, 1, 1, 1), (1, 1), 32),       # 1x1 depthwise
    ((4, 32, 8, 8), (32, 1, 1, 1), (2, 2), 32),        # 1x1 depthwise, stride 2
    ((16, 32, 8, 8), (64, 1, 1, 1), (1, 1), 32),       # 1x1 depthwise, 2 out/group
    ((1, 16, 3, 3), (8, 16, 3, 3), (1, 1), 1),         # one output pixel
]


def in_layouts(array):
    """``array`` as C-contiguous, NHWC-strided and CNHW-strided copies —
    the layouts an unpadded conv's input has in a stream."""
    yield "NCHW", array
    yield "NHWC", np.ascontiguousarray(
        array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    yield "CNHW", np.ascontiguousarray(
        array.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def sample(rng, shape, dtype):
    values = rng.standard_normal(shape).astype(dtype)
    values[values > 1.0] = 0.0           # ReLU-style exact zeros
    return values


def check_config(config, dtype=np.float32, seed=0):
    xp_shape, w_shape, stride, groups = config
    rng = np.random.default_rng(seed)
    new, ref = NumpyBackend(), EinsumReference()
    weight = sample(rng, w_shape, dtype)
    for x_layout, xp in in_layouts(sample(rng, xp_shape, dtype)):
        where = f"{config} input {x_layout}"
        out = new.conv2d_forward(xp, weight, stride, groups)
        expected = ref.conv2d_forward(xp, weight, stride, groups)
        assert_matches(out, expected, f"forward, {where}")
        for g_layout, grad in in_layouts(sample(rng, expected.shape, dtype)):
            for need in ((True, True), (True, False), (False, True)):
                got = new.conv2d_backward(grad, xp, weight, stride, groups,
                                          *need)
                want = ref.conv2d_backward(grad, xp, weight, stride, groups,
                                           *need)
                for label, a, b in zip(("input grad", "weight grad"),
                                       got, want):
                    assert (a is None) == (b is None), label
                    if a is not None:
                        assert_matches(a, b, f"{label}, {where}, "
                                             f"grad {g_layout}, need {need}")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_registry_conv_matches_einsum(name):
    configs = model_conv_configs(name)
    assert configs
    for config in configs:
        check_config(config)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("config", EXTRA_CONFIGS, ids=str)
def test_edge_convs_match_einsum(config, dtype):
    check_config(config, dtype)


# ---------------------------------------------------------------------------
# whole adaptation streams
# ---------------------------------------------------------------------------

def stream_batches(count=8, seed=3):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((16, 3, 16, 16)).astype(np.float32),
             rng.integers(0, 10, 16)) for _ in range(count)]


def run_stream(backend, name, method, guard, batches):
    """Per-batch logits and the final BN state of one session."""
    nn_init.seed(11)
    model = build_model(name, "tiny")
    model.eval()
    session = AdaptationSession(model, method, guard=guard)
    logits = []
    with use_backend(backend), session:
        for images, labels in batches:
            logits.append(session.runner.forward(images))
    return logits, BNState.capture(model)


@pytest.mark.skipif(not EXACT, reason="this numpy's einsum sums in another "
                    "order, and adaptation amplifies float32 rounding past "
                    "any fixed tolerance (the kernel tests still run)")
@pytest.mark.parametrize("guard", [False, True], ids=["unguarded", "guarded"])
@pytest.mark.parametrize("method", ["no_adapt", "bn_norm", "bn_opt"])
@pytest.mark.parametrize("name", ["wrn40_2", "mobilenet_v2"])
def test_stream_matches_einsum_reference(name, method, guard):
    batches = stream_batches()
    if guard:           # a NaN frame: the guard rolls back and degrades
        images = batches[2][0].copy()
        images[0] = np.nan
        batches[2] = (images, batches[2][1])
    got, got_state = run_stream(NumpyBackend(), name, method, guard, batches)
    want, want_state = run_stream(EinsumReference(), name, method, guard,
                                  batches)
    for index, (a, b) in enumerate(zip(got, want)):
        assert_matches(a, b, f"logits of batch {index}")
    assert got_state == want_state


def test_bn_opt_stream_stops_allocating_after_first_batch():
    """From the second batch on, every workspace comes from the pool."""
    backend = NumpyBackend()
    nn_init.seed(11)
    model = build_model("wrn40_2", "tiny")
    model.eval()
    batches = stream_batches()
    with use_backend(backend), AdaptationSession(model, "bn_opt") as session:
        session.process_batch(*batches[0])
        first = backend.arena_stats()
        for images, labels in batches[1:]:
            session.process_batch(images, labels)
    stats = backend.arena_stats()
    assert stats.requests > first.requests
    assert stats.misses == first.misses
    assert stats.bytes_allocated == first.bytes_allocated
