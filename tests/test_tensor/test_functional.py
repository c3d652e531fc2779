"""Semantics of the fused functional ops (BN, softmax family, losses)."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F


class TestBatchNormTrain:
    def test_output_is_standardized_before_affine(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 5, 5)) * 4 + 2)
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        out, mean, var = F.batch_norm_train(x, gamma, beta)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_returned_stats_match_batch(self, rng):
        data = rng.standard_normal((4, 2, 3, 3))
        _, mean, var = F.batch_norm_train(Tensor(data), Tensor(np.ones(2)),
                                          Tensor(np.zeros(2)))
        np.testing.assert_allclose(mean, data.mean(axis=(0, 2, 3)), rtol=1e-5)
        # returned variance is the unbiased estimator (PyTorch convention)
        np.testing.assert_allclose(var, data.var(axis=(0, 2, 3), ddof=1),
                                   rtol=1e-4)

    def test_affine_applies(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)))
        out, _, _ = F.batch_norm_train(x, Tensor(np.array([2.0, 0.5])),
                                       Tensor(np.array([1.0, -1.0])))
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)),
                                   [1.0, -1.0], atol=1e-5)

    def test_grad_only_to_affine_when_x_frozen(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=False)
        gamma = Tensor(np.ones(2), requires_grad=True)
        beta = Tensor(np.zeros(2), requires_grad=True)
        out, _, _ = F.batch_norm_train(x, gamma, beta)
        (out ** 2).sum().backward()
        assert gamma.grad is not None and beta.grad is not None
        assert x.grad is None


class TestBatchNormEval:
    def test_uses_running_stats(self, rng):
        x = rng.standard_normal((4, 2, 3, 3))
        mean = np.array([1.0, -1.0])
        var = np.array([4.0, 0.25])
        out = F.batch_norm_eval(Tensor(x), Tensor(np.ones(2)),
                                Tensor(np.zeros(2)), mean, var, eps=0.0)
        expected = (x - mean[None, :, None, None]) / np.sqrt(var)[None, :, None, None]
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_eval_differs_from_train_under_shift(self, rng):
        x = Tensor(rng.standard_normal((8, 2, 4, 4)) + 5.0)  # shifted input
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        train_out, _, _ = F.batch_norm_train(x, gamma, beta)
        eval_out = F.batch_norm_eval(x, gamma, beta, np.zeros(2), np.ones(2))
        # eval with stale stats leaves the shift in; train removes it
        assert abs(eval_out.data.mean()) > 4.0
        assert abs(train_out.data.mean()) < 1e-4

    def test_gamma_grad_normalizes_with_forward_time_mean(self, rng):
        """gamma's gradient uses the running mean the forward saw, even
        when the buffer is updated in place (as train-mode BN does)
        before backward runs."""
        x = Tensor(rng.standard_normal((4, 3, 5, 5)).astype(np.float32))
        gamma = Tensor(np.ones(3, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(3, np.float32), requires_grad=True)
        mean = rng.standard_normal(3).astype(np.float32)
        var = rng.uniform(0.5, 2.0, 3).astype(np.float32)
        grad = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = F.batch_norm_eval(x, gamma, beta, mean, var)
        mean += 1.0
        out.backward(grad)
        np.testing.assert_array_equal(gamma.grad,
                                      (grad * xhat).sum(axis=(0, 2, 3)))


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self, rng):
        p = F.softmax(Tensor(rng.standard_normal((6, 9)))).data
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-5)
        assert (p >= 0).all()

    def test_log_softmax_stability_large_logits(self):
        out = F.log_softmax(Tensor(np.array([[1000.0, 0.0]]))).data
        assert np.isfinite(out).all()

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((5, 3))
        targets = rng.integers(0, 3, size=5)
        loss = F.cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        manual = -logp[np.arange(5), targets].mean()
        assert loss == pytest.approx(manual, rel=1e-5)

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 2])).item()
        assert loss < 1e-6


class TestEntropyLoss:
    def test_uniform_gives_log_c(self):
        logits = Tensor(np.zeros((4, 10)))
        assert F.entropy_loss(logits).item() == pytest.approx(np.log(10), rel=1e-5)

    def test_confident_gives_near_zero(self):
        logits = np.full((3, 5), -30.0)
        logits[:, 0] = 30.0
        assert F.entropy_loss(Tensor(logits)).item() < 1e-6

    def test_entropy_decreases_under_gradient_descent(self, rng):
        # The core mechanism of BN-Opt: stepping along -grad of the
        # entropy sharpens predictions.
        logits = Tensor(rng.standard_normal((8, 6)), requires_grad=True)
        before = F.entropy_loss(logits)
        before.backward()
        stepped = Tensor(logits.data - 0.5 * logits.grad)
        after = F.entropy_loss(stepped)
        assert after.item() < before.item()


class TestAccuracy:
    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert F.accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_accepts_tensor(self):
        logits = Tensor(np.array([[1.0, 0.0]]))
        assert F.accuracy(logits, np.array([0])) == 1.0
