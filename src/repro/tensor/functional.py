"""Fused neural-network ops: batch normalization, softmax-family, losses.

Batch normalization is the centrepiece of the paper: both adaptation
algorithms act exclusively on BN state.  Two fused kernels are provided,
mirroring PyTorch's ``F.batch_norm`` in its two modes:

- :func:`batch_norm_train` — normalizes with *batch* statistics (what a
  model in ``train()`` mode does, and what BN-Norm / BN-Opt exploit at test
  time).  The backward pass propagates gradients through the batch
  statistics, which is required for BN-Opt's entropy backprop to reach
  earlier layers' affine parameters.
- :func:`batch_norm_eval` — normalizes with frozen running statistics
  (``eval()`` mode, the No-Adapt baseline).

The entropy loss :func:`entropy_loss` implements the Shannon-entropy
objective of BN-Opt (TENT): ``H(y) = -sum_c p_c log p_c`` averaged over the
batch, computed from logits in a numerically stable way.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine import get_backend
from repro.tensor.tensor import Tensor, records_graph


def batch_norm_train(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float = 1e-5,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Batch-norm forward using batch statistics over (N, H, W) per channel.

    Returns ``(out, batch_mean, batch_var)`` — the statistics are plain
    arrays so the caller (``BatchNorm2d``) can update its running buffers,
    exactly as PyTorch does in train mode.  ``x`` is (N, C, H, W); ``gamma``
    and ``beta`` are (C,).
    """
    data = x.data
    axes = (0, 2, 3)
    m = data.shape[0] * data.shape[2] * data.shape[3]
    # biased variance, matching PyTorch normalization; ``centered`` is a
    # fresh x - mean, scaled into xhat in place
    mean, var, centered = get_backend().batchnorm_stats(data)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(centered, inv_std[None, :, None, None], out=centered)
    gamma4 = gamma.data[None, :, None, None]
    beta4 = beta.data[None, :, None, None]

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            out._send_grad(gamma, (grad * xhat).sum(axis=axes))
        if beta.requires_grad:
            out._send_grad(beta, grad.sum(axis=axes))
        if x.requires_grad:
            g = grad * gamma.data[None, :, None, None]
            mean_g = g.mean(axis=axes)
            mean_gx = (g * xhat).mean(axis=axes)
            dx = (g - mean_g[None, :, None, None]
                  - xhat * mean_gx[None, :, None, None]) * inv_std[None, :, None, None]
            out._send_grad(x, dx)

    if records_graph((x, gamma, beta)):
        out = Tensor._from_op(gamma4 * xhat + beta4, (x, gamma, beta),
                              backward)
    else:
        # no backward reads xhat: the affine output reuses its buffer
        np.multiply(gamma4, xhat, out=xhat)
        out = Tensor(np.add(xhat, beta4, out=xhat))
    # Unbiased variance for the running buffer, as PyTorch stores it.
    unbiased = var * (m / max(m - 1, 1))
    return out, mean, unbiased


def batch_norm_eval(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
) -> Tensor:
    """Batch-norm forward using frozen running statistics (eval mode)."""
    inv_std = 1.0 / np.sqrt(running_var + eps)
    scale = gamma.data * inv_std
    shift = beta.data - running_mean * scale
    out_data = x.data * scale[None, :, None, None] + shift[None, :, None, None]
    # only gamma's gradient reads xhat: build it there, from the mean as
    # it was now (train-mode BN updates the running buffers in place)
    mean = running_mean.copy()

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
            out._send_grad(gamma, (grad * xhat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            out._send_grad(beta, grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            out._send_grad(x, grad * scale[None, :, None, None])

    out = Tensor._from_op(out_data, (x, gamma, beta), backward)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    softmax = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        out._send_grad(x, grad - softmax * grad.sum(axis=axis, keepdims=True))

    out = Tensor._from_op(out_data, (x,), backward)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable, via exp of log-softmax)."""
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,)."""
    targets = np.asarray(targets).astype(np.int64)
    n = logits.data.shape[0]
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(n), targets]
    return -(picked.mean())


def entropy_loss(logits: Tensor) -> Tensor:
    """Mean Shannon entropy of the predicted distributions (BN-Opt objective).

    ``H(y) = -sum_c p(y_c) log p(y_c)`` computed per sample from ``logits``
    (N, C), then averaged over the batch.  Fully differentiable w.r.t. the
    logits; no labels required.
    """
    logp = log_softmax(logits, axis=-1)
    p = logp.exp()
    per_sample = -(p * logp).sum(axis=-1)
    return per_sample.mean()


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1] from raw logits and integer labels."""
    logits = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = logits.argmax(axis=-1)
    return float((predictions == np.asarray(targets)).mean())
