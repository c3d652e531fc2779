"""The one-pass BN statistics, the ``relu`` kernel and the channels-last
padded workspace against the code they replaced, byte for byte.

``COrderPadding`` keeps the padding as it was (always a C-order
workspace), and :func:`old_batch_norm_train` and :func:`old_relu`
keep the BN forward (``x.mean``, ``x.var``, then ``x - mean`` again for
xhat) and the ``np.where`` ReLU.  Patched in together, they run a
stream the way the engine ran it before; the new code must give the
same logits and BN state, bit for bit, including after a NaN and a
-0.0 pixel.
"""

import itertools

import numpy as np
import pytest

from repro.adapt import BNState
from repro.engine import NumpyBackend, use_backend
from repro.models import MODEL_NAMES, build_model
from repro.nn import init as nn_init
from repro.serve.session import AdaptationSession
from repro.tensor import Tensor, functional, no_grad
from repro.tensor.conv import conv2d


def channels_last(array):
    """``array`` (N, C, H, W) with NHWC memory order."""
    return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(
        0, 3, 1, 2)


def layouts(array):
    yield "NCHW", array
    yield "NHWC", channels_last(array)


def assert_same_array(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.strides == want.strides, what
    assert got.tobytes() == want.tobytes(), what


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

def special_values(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny,
                     -tiny, 3 * tiny, -3 * tiny, 1.0, -1.0], dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_matches_where(dtype):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((4, 6, 5, 5)).astype(dtype)
    specials = special_values(dtype)
    values.flat[:specials.size] = specials
    values.flat[-specials.size:] = specials
    backend = NumpyBackend()
    for layout, x in layouts(values):
        got = backend.relu(x)
        assert_same_array(got, np.where(x > 0, x, 0), f"relu, {layout}")
        assert not np.shares_memory(got, x)
    # -0.0 and NaN come out as +0.0, not as a negative zero
    out = backend.relu(specials)
    assert not np.signbit(out[~(specials > 0)]).any()


def test_tensor_relu_records_mask_only_with_a_graph():
    x = Tensor(np.array([[-1.0, 0.0, 2.0, np.nan]], np.float32),
               requires_grad=True)
    with no_grad():
        detached = x.relu()
    assert detached._backward is None and not detached.requires_grad
    out = x.relu()
    out.backward(np.ones_like(out.data))
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0, 0.0]])
    assert out.data.tobytes() == detached.data.tobytes()


# ---------------------------------------------------------------------------
# batchnorm_stats
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(16, 8, 16, 16), (50, 4, 16, 16),
                                   (3, 5, 7, 7), (1, 3, 1, 1)],
                         ids=str)
def test_batchnorm_stats_match_mean_var(shape, dtype):
    rng = np.random.default_rng(1)
    values = (rng.standard_normal(shape) * 7.0 + 3.0).astype(dtype)
    backend = NumpyBackend()
    for layout, x in layouts(values):
        mean, var, centered = backend.batchnorm_stats(x)
        want_mean = x.mean(axis=(0, 2, 3))
        assert_same_array(mean.reshape(-1), want_mean, f"mean, {layout}")
        assert mean.shape == (shape[1],)
        assert_same_array(var, x.var(axis=(0, 2, 3)), f"var, {layout}")
        assert_same_array(centered, x - want_mean[None, :, None, None],
                          f"centered, {layout}")
        assert not np.shares_memory(centered, x)


def old_batch_norm_train(x, gamma, beta, eps=1e-5):
    """The BN-train forward before the one-pass statistics."""
    data = x.data
    axes = (0, 2, 3)
    m = data.shape[0] * data.shape[2] * data.shape[3]
    mean, var = data.mean(axis=axes), data.var(axis=axes)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out_data = (gamma.data[None, :, None, None] * xhat
                + beta.data[None, :, None, None])

    def backward(grad):
        if gamma.requires_grad:
            out._send_grad(gamma, (grad * xhat).sum(axis=axes))
        if beta.requires_grad:
            out._send_grad(beta, grad.sum(axis=axes))
        if x.requires_grad:
            g = grad * gamma.data[None, :, None, None]
            mean_g = g.mean(axis=axes)
            mean_gx = (g * xhat).mean(axis=axes)
            dx = (g - mean_g[None, :, None, None]
                  - xhat * mean_gx[None, :, None, None]
                  ) * inv_std[None, :, None, None]
            out._send_grad(x, dx)

    out = Tensor._from_op(out_data, (x, gamma, beta), backward)
    return out, mean, var * (m / max(m - 1, 1))


def old_relu(self):
    """``Tensor.relu`` before the backend kernel."""
    mask = self.data > 0
    out_data = np.where(mask, self.data, 0)

    def backward(grad):
        out._send_grad(self, grad * mask)

    out = Tensor._from_op(out_data, (self,), backward)
    return out


@pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "graph"])
def test_batch_norm_train_matches_old_code(grad):
    rng = np.random.default_rng(2)
    values = rng.standard_normal((50, 4, 16, 16)).astype(np.float32)
    values[3, 1, 2, 2] = np.nan
    values[5, 2, 0, 1] = -0.0
    upstream = rng.standard_normal(values.shape).astype(np.float32)
    gamma_values = rng.uniform(0.5, 2.0, 4).astype(np.float32)
    beta_values = np.linspace(-1.0, 1.0, 4, dtype=np.float32)
    for layout, data in layouts(values):
        results = []
        for forward in (functional.batch_norm_train, old_batch_norm_train):
            x = Tensor(data, requires_grad=grad)
            gamma = Tensor(gamma_values, requires_grad=grad)
            beta = Tensor(beta_values, requires_grad=grad)
            out, mean, var = forward(x, gamma, beta)
            results.append([out.data, mean, var])
            if grad:
                out.backward(upstream)
                results[-1] += [x.grad, gamma.grad, beta.grad]
        for index, (got, want) in enumerate(zip(*results)):
            assert_same_array(got, want, f"result {index}, {layout}")


# ---------------------------------------------------------------------------
# the channels-last padded workspace
# ---------------------------------------------------------------------------

class COrderPadding(NumpyBackend):
    """NumpyBackend with the padding as it was: a C-order workspace."""

    def pad_input(self, x, ph, pw, kernel, stride):
        n, c, h, w = x.shape
        buf = self.arena.acquire_zeros((n, c, h + 2 * ph, w + 2 * pw),
                                       x.dtype)
        buf[:, :, ph:ph + h, pw:pw + w] = x
        return buf


def assert_same_conv(x, weight, padding, stride, groups, what):
    """The padded input of the new ``pad_input`` and of the old C-order one
    give byte-identical im2col operands (forward and weight-grad) and
    conv outputs."""
    new, old = NumpyBackend(), COrderPadding()
    kh, kw = weight.shape[2:]
    xps = [backend.pad_input(x, *padding, (kh, kw), stride)
           for backend in (new, old)]
    assert xps[0].tobytes("C") == xps[1].tobytes("C"), what
    n, c, h, w = xps[0].shape
    ho, wo = (h - kh) // stride[0] + 1, (w - kw) // stride[1] + 1
    for taps_last in (True, False):
        operands = [backend._im2col(xp, kh, kw, stride, groups,
                                    np.empty(n * ho * wo * c * kh * kw,
                                             x.dtype), taps_last)
                    for backend, xp in zip((new, old), xps)]
        assert_same_array(*operands, f"{what}, taps_last={taps_last}")
    assert_same_array(new.conv2d_forward(xps[0], weight, stride, groups),
                      old.conv2d_forward(xps[1], weight, stride, groups),
                      f"{what}, forward")
    return xps[0].base is not None


class _Recorder(NumpyBackend):
    """Records the unpadded input and window of every padded conv."""

    def __init__(self):
        super().__init__()
        self.calls = {}
        self._pending = None

    def pad_input(self, x, ph, pw, kernel, stride):
        self._pending = (x, (ph, pw), stride)
        return super().pad_input(x, ph, pw, kernel, stride)

    def conv2d_forward(self, xp, weight, stride, groups):
        if self._pending is not None:
            x, padding, stride = self._pending
            key = (x.shape, x.strides, padding, weight.shape, stride, groups)
            self.calls.setdefault(key, (x.copy(order="K"), weight.copy()))
        self._pending = None
        return super().conv2d_forward(xp, weight, stride, groups)


@pytest.mark.parametrize("size", [16, 8])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_registry_convs_see_the_same_operands(name, size):
    recorder = _Recorder()
    nn_init.seed(0)
    model = build_model(name, "tiny")
    rng = np.random.default_rng(0)
    images = rng.standard_normal((4, 3, size, size)).astype(np.float32)
    with use_backend(recorder), no_grad():
        model(Tensor(images))
    used_nhwc = []
    for key, (x, weight) in recorder.calls.items():
        _, _, padding, _, stride, groups = key
        used_nhwc.append(assert_same_conv(x, weight, padding, stride,
                                          groups, f"{name} {key}"))
    assert any(used_nhwc), "no conv padded into an NHWC workspace"


def test_window_grid_sees_the_same_operands():
    """The layouts where the NHWC workspace would change the operand (a
    1x1 or 1-D window, a one-pixel output row or column) keep C order."""
    rng = np.random.default_rng(3)
    for n, (c, groups), (h, w), (kh, kw), padding, stride in \
            itertools.product((1, 2), ((4, 1), (8, 2), (8, 8)),
                              ((1, 1), (2, 2), (2, 3), (5, 5)),
                              ((3, 3), (1, 1), (3, 1), (2, 2)),
                              ((1, 1), (0, 1)), ((1, 1), (2, 2), (1, 2))):
        if h + 2 * padding[0] < kh or w + 2 * padding[1] < kw:
            continue
        x = channels_last(rng.standard_normal((n, c, h, w)).astype(
            np.float32))
        weight = rng.standard_normal((c, c // groups, kh, kw)).astype(
            np.float32)
        assert_same_conv(x, weight, padding, stride, groups,
                         f"{x.shape} {weight.shape} {padding} {stride}")


def test_channels_last_workspace_goes_back_to_the_arena():
    backend = NumpyBackend()
    x = Tensor(channels_last(np.ones((4, 8, 6, 6), np.float32)))
    weight = Tensor(np.ones((8, 8, 3, 3), np.float32), requires_grad=True)
    with use_backend(backend):
        for _ in range(3):
            out = conv2d(x, weight, padding=1)
            out.backward(np.ones_like(out.data))
            with no_grad():
                conv2d(x, weight, padding=1)
    # one padded workspace and one im2col/col2im buffer, each drawn
    # fresh once and reused by every later call
    assert backend.arena_stats().misses == 2
    assert backend.arena.pooled_buffers() == 2


# ---------------------------------------------------------------------------
# whole adaptation streams against the old code
# ---------------------------------------------------------------------------

def stream_batches(count=12, batch=50, size=8, seed=5):
    """Seeded batches, the seventh with a NaN and a -0.0 pixel (8x8
    frames keep the 24 streams cheap; every model still pads
    channels-last activations at that size)."""
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((batch, 3, size, size)).astype(
        np.float32), rng.integers(0, 10, batch)) for _ in range(count)]
    images = batches[6][0]
    images[1, 0, 3, 3] = np.nan
    images[2, 1, 5, 6] = -0.0
    return batches


def run_stream(name, method, guard, batches, old, monkeypatch):
    nn_init.seed(11)
    model = build_model(name, "tiny")
    model.eval()
    session = AdaptationSession(model, method, guard=guard)
    backend = COrderPadding() if old else NumpyBackend()
    with monkeypatch.context() as patch:
        if old:
            patch.setattr(functional, "batch_norm_train",
                          old_batch_norm_train)
            patch.setattr(Tensor, "relu", old_relu)
        logits = []
        with use_backend(backend), session:
            for images, _ in batches:
                logits.append(session.runner.forward(images))
    return logits, BNState.capture(model)


@pytest.mark.parametrize("guard", [False, True], ids=["unguarded", "guarded"])
@pytest.mark.parametrize("method", ["no_adapt", "bn_norm", "bn_opt"])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_stream_matches_old_code(name, method, guard, monkeypatch):
    batches = stream_batches()
    got, got_state = run_stream(name, method, guard, batches, False,
                                monkeypatch)
    want, want_state = run_stream(name, method, guard, batches, True,
                                  monkeypatch)
    for index, (a, b) in enumerate(zip(got, want)):
        assert_same_array(a, b, f"logits of batch {index}")
    assert got_state == want_state
