"""Execution backends: dispatch, numerical agreement, arena reuse."""

import threading

import numpy as np
import pytest

from repro.engine import (
    BACKEND_NAMES,
    InstrumentedBackend,
    NumpyBackend,
    create_backend,
    default_backend,
    get_backend,
    use_backend,
)
from repro.tensor import Tensor, no_grad
from repro.tensor.conv import conv2d, max_pool2d
from repro.tensor import functional as F


def rand(shape, seed, requires_grad=False, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(dtype),
                  requires_grad=requires_grad)


class TestDispatch:
    def test_default_backend_is_numpy(self):
        assert get_backend().name == "numpy"
        assert default_backend() is get_backend()

    def test_use_backend_activates_and_restores(self):
        backend = NumpyBackend()
        before = get_backend()
        with use_backend(backend):
            assert get_backend() is backend
        assert get_backend() is before
        backend.close()

    def test_use_backend_nests(self):
        a, b = NumpyBackend(), NumpyBackend()
        with use_backend(a):
            with use_backend(b):
                assert get_backend() is b
            assert get_backend() is a

    def test_use_backend_restores_on_exception(self):
        backend = NumpyBackend()
        with pytest.raises(RuntimeError):
            with use_backend(backend):
                raise RuntimeError("boom")
        assert get_backend() is not backend

    def test_use_backend_is_thread_local(self):
        backend = NumpyBackend()
        seen = {}

        def worker():
            seen["backend"] = get_backend()

        with use_backend(backend):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["backend"] is not backend  # other thread saw the default

    def test_create_backend_names(self):
        for name in BACKEND_NAMES:
            backend = create_backend(name)
            assert backend.name == name
            backend.close()
        with pytest.raises(ValueError):
            create_backend("cuda")

    def test_backward_uses_forward_time_backend(self):
        """The backend active at forward time serves the backward pass."""
        inst = InstrumentedBackend(NumpyBackend())
        x = rand((2, 3, 8, 8), 0, requires_grad=True)
        w = rand((4, 3, 3, 3), 1, requires_grad=True)
        with use_backend(inst):
            out = conv2d(x, w, padding=1)
        # Context has exited; backward must still hit the instrumented backend.
        out.backward(np.ones_like(out.data))
        assert inst.op_stats["conv2d_backward"].calls == 1


def named_backends():
    """Every backend the CLI can name besides the numpy reference."""
    return [create_backend(name) for name in BACKEND_NAMES if name != "numpy"]


def assert_clean(backend):
    """Close ``backend`` after checking that a validating wrapper (the
    sanitizer) found nothing to report."""
    assert getattr(backend, "findings", []) == []
    backend.close()


class TestBackendAgreement:
    """Every backend ``create_backend`` names computes what NumpyBackend
    computes, bit for bit: a wrapper observes, it never moves a result."""

    @pytest.mark.parametrize("groups,cin,cout", [(1, 6, 8), (2, 6, 8), (6, 6, 6)])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
    def test_conv_forward_matches(self, groups, cin, cout, stride, padding):
        x = rand((16, cin, 10, 10), 2)
        w = rand((cout, cin // groups, 3, 3), 3)
        with use_backend(NumpyBackend()), no_grad():
            ref = conv2d(x, w, stride=stride, padding=padding, groups=groups)
        for backend in named_backends():
            with use_backend(backend), no_grad():
                got = conv2d(x, w, stride=stride, padding=padding,
                             groups=groups)
            assert_clean(backend)
            np.testing.assert_array_equal(got.data, ref.data)

    @pytest.mark.parametrize("groups", [1, 2, 6])
    def test_conv_backward_matches(self, groups):
        def grads(backend):
            x = rand((16, 6, 8, 8), 4, requires_grad=True)
            w = rand((6, 6 // groups, 3, 3), 5, requires_grad=True)
            with use_backend(backend):
                out = conv2d(x, w, stride=1, padding=1, groups=groups)
                out.backward(np.ones_like(out.data))
            return x.grad, w.grad

        ref_dx, ref_dw = grads(NumpyBackend())
        for backend in named_backends():
            got_dx, got_dw = grads(backend)
            assert_clean(backend)
            np.testing.assert_array_equal(got_dx, ref_dx)
            np.testing.assert_array_equal(got_dw, ref_dw)

    def test_batchnorm_stats_match(self):
        x = rand((16, 5, 6, 6), 10)
        ref_mean, ref_var, ref_centered = NumpyBackend().batchnorm_stats(
            x.data)
        for backend in named_backends():
            got_mean, got_var, got_centered = backend.batchnorm_stats(x.data)
            assert_clean(backend)
            np.testing.assert_array_equal(got_mean, ref_mean)
            np.testing.assert_array_equal(got_var, ref_var)
            np.testing.assert_array_equal(got_centered, ref_centered)

    def test_pooling_matches(self):
        x = rand((16, 3, 8, 8), 11, requires_grad=True)
        with use_backend(NumpyBackend()):
            ref = max_pool2d(x, 2)
            ref.backward(np.ones_like(ref.data))
        ref_grad = x.grad
        for backend in named_backends():
            x.zero_grad()
            with use_backend(backend):
                got = max_pool2d(x, 2)
                got.backward(np.ones_like(got.data))
            assert_clean(backend)
            np.testing.assert_array_equal(got.data, ref.data)
            np.testing.assert_array_equal(x.grad, ref_grad)

    def test_model_forward_matches_across_backends(self):
        """A whole conv-BN-linear model agrees across backends."""
        from repro import nn
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, bias=False), nn.BatchNorm2d(8),
            nn.ReLU(), nn.GlobalAvgPool2d(), nn.Linear(8, 10))
        model.eval()
        x = rand((32, 3, 8, 8), 12)
        with no_grad():
            ref = model(x).data
            for backend in named_backends():
                with use_backend(backend):
                    got = model(x).data
                assert_clean(backend)
                np.testing.assert_array_equal(got, ref)


class TestArena:
    def test_steady_state_reuse(self):
        """Repeated same-shape convs stop allocating after the first call."""
        backend = NumpyBackend()
        x = rand((4, 3, 8, 8), 13, requires_grad=True)
        w = rand((8, 3, 3, 3), 14, requires_grad=True)
        with use_backend(backend):
            for _ in range(3):
                out = conv2d(x, w, padding=1)
                out.backward(np.ones_like(out.data))
                x.zero_grad()
                w.zero_grad()
        stats = backend.arena_stats()
        # pad + forward im2col + backward workspace per iteration; the
        # backward workspace has the im2col buffer's size, so even the
        # first iteration reuses it
        assert stats.requests == 9
        assert stats.hits == 7
        assert stats.bytes_reused > 0
        assert stats.hit_rate == pytest.approx(7 / 9)

    def test_no_grad_releases_pad_immediately(self):
        backend = NumpyBackend()
        x = rand((4, 3, 8, 8), 15)
        w = rand((8, 3, 3, 3), 16)
        with use_backend(backend), no_grad():
            conv2d(x, w, padding=1)
            conv2d(x, w, padding=1)
        stats = backend.arena_stats()
        assert stats.requests == 4          # pad + im2col per conv
        assert stats.hits == 2

    def test_release_refuses_views_and_double_release(self):
        backend = NumpyBackend()
        arena = backend.arena
        buf = arena.acquire((4, 4), np.float32)
        arena.release(buf[:2])              # view: refused
        assert arena.pooled_buffers() == 0
        arena.release(buf)
        arena.release(buf)                  # double release: no-op
        assert arena.pooled_buffers() == 1

    def test_clear_resets_counters(self):
        backend = NumpyBackend()
        buf = backend.arena.acquire((8,), np.float32)
        backend.arena.release(buf)
        backend.arena.clear()
        stats = backend.arena_stats()
        assert stats.requests == 0 and backend.arena.pooled_buffers() == 0

    def test_results_unaffected_by_reuse(self):
        """Workspace recycling must not change values batch to batch."""
        backend = NumpyBackend()
        x1 = rand((4, 3, 8, 8), 17)
        x2 = rand((4, 3, 8, 8), 18)
        w = rand((8, 3, 3, 3), 19)
        with no_grad():
            fresh1 = conv2d(x1, w, padding=1).data
            fresh2 = conv2d(x2, w, padding=1).data
            with use_backend(backend):
                np.testing.assert_array_equal(conv2d(x1, w, padding=1).data, fresh1)
                np.testing.assert_array_equal(conv2d(x2, w, padding=1).data, fresh2)
                np.testing.assert_array_equal(conv2d(x1, w, padding=1).data, fresh1)


class TestInstrumentedBackend:
    def test_counts_and_times_kernels(self):
        inst = InstrumentedBackend(NumpyBackend())
        x = rand((4, 3, 8, 8), 20, requires_grad=True)
        w = rand((8, 3, 3, 3), 21, requires_grad=True)
        with use_backend(inst):
            out = conv2d(x, w, padding=1)
            out.backward(np.ones_like(out.data))
            F.batch_norm_train(rand((4, 3, 4, 4), 22),
                               Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert inst.op_stats["conv2d_forward"].calls == 1
        assert inst.op_stats["conv2d_backward"].calls == 1
        assert inst.op_stats["batchnorm_stats"].calls == 1
        assert inst.total_time_s() > 0
        assert "conv2d_forward" in inst.describe()

    def test_arena_delta_and_reset(self):
        inner = NumpyBackend()
        inst = InstrumentedBackend(inner)
        x = rand((4, 3, 8, 8), 23)
        w = rand((8, 3, 3, 3), 24)
        with use_backend(inst), no_grad():
            conv2d(x, w, padding=1)
        assert inst.arena_delta().requests == 2    # pad + im2col
        inst.reset_stats()
        assert inst.arena_delta().requests == 0
        assert inst.op_stats == {}

    def test_shares_inner_name_and_arena(self):
        inner = NumpyBackend()
        inst = InstrumentedBackend(inner)
        assert inst.name == "numpy"
        assert inst.arena is inner.arena
        inner.close()
