"""Adaptation-algorithm extensions beyond the paper's two methods.

The paper's Section IV-G calls for "new hardware-aware adaptation
algorithms"; this module implements two published directions so the
study harness can benchmark them against BN-Norm/BN-Opt:

- :class:`BNNormSourceBlend` — Schneider et al. (NeurIPS 2020): instead
  of discarding the training-time statistics, blend them with the test
  batch's statistics using a source pseudo-count ``N``:
  ``mu = (N * mu_source + n * mu_batch) / (N + n)`` (and likewise for the
  variance).  With ``N = 0`` this degenerates to BN-Norm; large ``N``
  approaches No-Adapt.  Robust for small test batches — the regime the
  paper shows is cheapest on edge devices.

- :class:`BNOptSelective` — entropy-gated TENT in the spirit of EATA
  (Niu et al., ICML 2022): only samples whose prediction entropy is
  below ``entropy_threshold`` x ln(C) contribute to the adaptation loss,
  suppressing gradient noise from unconfident samples.  Because the
  gate shrinks the effective backward batch, it is also a *latency*
  lever: the device cost model charges backward for the gated
  fraction only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adapt.base import AdaptationMethod, bn_layers, bn_parameters, configure_bn_only_grads
from repro.adapt.state import BNState
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad


class BNNormSourceBlend(AdaptationMethod):
    """BN statistics blending between source (training) and test batch.

    Parameters
    ----------
    source_count:
        Pseudo-count ``N`` of the source statistics.  The effective
        interpolation weight for the incoming batch of size ``n`` is
        ``n / (N + n)``.
    """

    name = "bn_norm_blend"
    does_backward = False
    adapts_bn_stats = True

    def __init__(self, source_count: int = 16):
        super().__init__()
        if source_count < 0:
            raise ValueError("source_count must be >= 0")
        self.source_count = source_count
        self._source: Optional[BNState] = None

    def _configure(self, model: Module) -> None:
        model.requires_grad_(False)
        # Keep the model in eval mode: we normalize with *our* blended
        # buffers, which we write into the running-stat slots per batch.
        model.eval()
        self._source = BNState.capture(model)

    def forward(self, x: np.ndarray) -> np.ndarray:
        model = self._require_model()
        n = x.shape[0]
        weight = n / (self.source_count + n)
        # Pass 1: collect the batch statistics of every BN layer's input
        # by running in train mode with momentum=1 (buffers <- batch).
        layers = bn_layers(model)
        model.train()
        saved_momentum = [layer.momentum for layer in layers]
        for layer in layers:
            layer.momentum = 1.0
        with no_grad():
            model(Tensor(x))
        # Blend source and batch statistics into the buffers, then run
        # the actual prediction pass in eval mode with the blend.
        for layer, source, momentum in zip(layers, self._source.layers,
                                           saved_momentum):
            layer.set_buffer("running_mean",
                             (1 - weight) * source.running_mean
                             + weight * layer.running_mean)
            layer.set_buffer("running_var",
                             (1 - weight) * source.running_var
                             + weight * layer.running_var)
            layer.momentum = momentum
        model.eval()
        with no_grad():
            logits = model(Tensor(x))
        self.batches_adapted += 1
        return logits.data


class BNOptSelective(AdaptationMethod):
    """Entropy-gated TENT: adapt only on confident samples.

    Parameters
    ----------
    lr:
        Adam learning rate over the BN affine parameters.
    entropy_threshold:
        Gate as a fraction of the maximum entropy ``ln(C)``; samples with
        per-sample entropy above ``entropy_threshold * ln(C)`` are
        excluded from the adaptation loss.  ``1.0`` disables the gate
        (plain BN-Opt).
    """

    name = "bn_opt_selective"
    does_backward = True
    adapts_bn_stats = True

    def __init__(self, lr: float = 1e-3, entropy_threshold: float = 0.4):
        super().__init__()
        if not 0.0 < entropy_threshold <= 1.0:
            raise ValueError("entropy_threshold must be in (0, 1]")
        self.lr = lr
        self.entropy_threshold = entropy_threshold
        self.optimizer: Optional[Adam] = None
        self.last_selected_fraction: Optional[float] = None
        self.last_entropy: Optional[float] = None

    def _configure(self, model: Module) -> None:
        model.train()
        configure_bn_only_grads(model)
        self.optimizer = Adam(list(bn_parameters(model)), lr=self.lr)

    def forward(self, x: np.ndarray) -> np.ndarray:
        model = self._require_model()
        if self.optimizer is None:
            raise RuntimeError("forward() before prepare()")
        logits = model(Tensor(x))
        logp = F.log_softmax(logits, axis=-1)
        p = logp.exp()
        per_sample = -(p * logp).sum(axis=-1)          # (N,)
        num_classes = logits.data.shape[-1]
        gate = (per_sample.data
                < self.entropy_threshold * np.log(num_classes)).astype(
                    np.float32)
        selected = float(gate.sum())
        self.last_selected_fraction = selected / len(gate)
        if selected > 0:
            loss = (per_sample * Tensor(gate)).sum() * (1.0 / selected)
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            self.last_entropy = loss.item()
        self.batches_adapted += 1
        return logits.data
