"""Adaptation diagnostics: observe what an adapting model is doing.

In an unsupervised deployment there are no labels to tell whether
adaptation is helping, so operators need label-free health signals.
:class:`AdaptationMonitor` wraps any :class:`AdaptationMethod` and
tracks, per batch:

- **statistics drift** — mean L2 distance between each BN layer's
  current running statistics and those of the :class:`BNState`
  captured at ``prepare`` (the source statistics): how
  far the model has walked from its training distribution;
- **prediction entropy** — the unsupervised confidence signal TENT
  minimizes;
- **prediction churn** — the fraction of repeated-input predictions that
  would change between consecutive batches (estimated on a fixed probe
  batch when provided): instability under adaptation.

These are the observability hooks the paper's deployment scenarios
(drones, remote spectroscopy, medical scanners) would need in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.adapt.base import AdaptationMethod, bn_layers
from repro.adapt.state import BNState
from repro.tensor.tensor import Tensor, no_grad


@dataclass
class BatchDiagnostics:
    """Health signals for one adaptation batch."""

    batch_index: int
    mean_entropy: float
    stats_drift: float
    prediction_churn: Optional[float]   # None when no probe batch is set


class AdaptationMonitor:
    """Wrap an adaptation method with label-free health tracking.

    Use exactly like the wrapped method::

        monitor = AdaptationMonitor(BNOpt(lr=1e-3), probe=probe_images)
        monitor.prepare(model)
        logits = monitor.forward(batch)     # adapts + records diagnostics
        monitor.history[-1].stats_drift
    """

    def __init__(self, method: AdaptationMethod,
                 probe: Optional[np.ndarray] = None):
        self.method = method
        self.probe = probe
        self.history: List[BatchDiagnostics] = []
        self._source: Optional[BNState] = None
        self._last_probe_predictions: Optional[np.ndarray] = None

    # -- delegation -----------------------------------------------------
    @property
    def name(self) -> str:
        return f"monitored({self.method.name})"

    def prepare(self, model) -> "AdaptationMonitor":
        self.method.prepare(model)
        self._source = BNState.capture(model)
        self.history.clear()
        self._last_probe_predictions = None
        return self

    def reset(self) -> None:
        self.method.reset()
        self.history.clear()
        self._last_probe_predictions = None

    # -- the instrumented step -------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        logits = self.method.forward(x)
        model = self.method.model
        assert model is not None

        entropy = float(_mean_entropy(logits))
        drift = self._stats_drift(model)
        churn = self._probe_churn(model)
        self.history.append(BatchDiagnostics(
            batch_index=len(self.history), mean_entropy=entropy,
            stats_drift=drift, prediction_churn=churn))
        return logits

    # -- signals ----------------------------------------------------------
    def _stats_drift(self, model) -> float:
        return stats_drift(model, self._source)

    def _probe_churn(self, model) -> Optional[float]:
        if self.probe is None:
            return None
        was_training = model.training
        model.eval()
        with no_grad():
            predictions = model(Tensor(self.probe)).data.argmax(axis=-1)
        if was_training:
            model.train()
        churn = None
        if self._last_probe_predictions is not None:
            churn = float((predictions != self._last_probe_predictions).mean())
        self._last_probe_predictions = predictions
        return churn

    # -- summaries ---------------------------------------------------------
    def drift_trajectory(self) -> List[float]:
        return [d.stats_drift for d in self.history]

    def entropy_trajectory(self) -> List[float]:
        return [d.mean_entropy for d in self.history]

    def max_churn(self) -> float:
        values = [d.prediction_churn for d in self.history
                  if d.prediction_churn is not None]
        return max(values) if values else 0.0


def _mean_entropy(logits: np.ndarray) -> float:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - log_z
    return float(-(np.exp(logp) * logp).sum(axis=-1).mean())


# ----------------------------------------------------------------------
# Label-free health signals (shared with the robustness guard layer)
# ----------------------------------------------------------------------
def mean_prediction_entropy(logits: np.ndarray) -> float:
    """Mean per-sample Shannon entropy of softmax(logits), in nats."""
    return _mean_entropy(logits)


def collect_bn_stats(model) -> List[np.ndarray]:
    """Per-BN-layer concatenated (running_mean, running_var) vectors."""
    return [np.concatenate([layer.running_mean, layer.running_var])
            for layer in bn_layers(model)]


def stats_drift(model, source: BNState) -> float:
    """Mean normalized L2 distance of BN running stats from ``source``'s.

    ``source`` is a :class:`BNState` of the pristine model; each layer's
    concatenated (running_mean, running_var) is compared with the
    model's :func:`collect_bn_stats` vector.  Scale-normalized by
    ``sqrt(dim)`` per layer so models of any width are comparable; NaN
    in either side propagates (a drift of NaN is itself a guard
    violation).
    """
    current = collect_bn_stats(model)
    if not current:
        return 0.0
    distances = [float(np.linalg.norm(
        now - np.concatenate([saved.running_mean, saved.running_var]))
        / np.sqrt(now.size))
        for now, saved in zip(current, source.layers)]
    return float(np.mean(distances))


def has_nonfinite_bn_state(model) -> bool:
    """True when any BN running buffer or affine parameter is NaN/Inf."""
    for layer in bn_layers(model):
        for array in (layer.running_mean, layer.running_var,
                      layer.weight.data, layer.bias.data):
            if not np.isfinite(array).all():
                return True
    return False
