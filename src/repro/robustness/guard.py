"""Guarded adaptation: BN-state rollback plus a degradation ladder.

TENT-style entropy minimization is known to collapse under bad batches
(EATA, Niu et al. 2022), and BN-Norm folds whatever it is fed — NaN
pixels included — into the running statistics that every later frame is
normalized with.  In an unsupervised deployment there is no label to
flag the poisoning; :class:`GuardedAdaptation` supplies the missing
safety net with three mechanisms:

1. **Snapshot / rollback** — before each batch the model's
   :class:`~repro.adapt.state.BNState` (running statistics, gamma/beta,
   batch counters, momentum, mode flags) is captured; if the post-step
   health checks fail, it is applied back *bit-identically*.
2. **Label-free health checks** (from :mod:`repro.adapt.diagnostics`):
   non-finite logits, non-finite BN parameters/buffers, prediction
   entropy collapse, and BN statistics drift blow-up.
3. **Degradation ladder** — after a rollback the same batch is retried
   one rung down ``bn_opt -> bn_norm -> no_adapt``; a configurable
   cooldown of consecutive healthy batches must pass at the degraded
   rung before the guard re-escalates one rung.  If even the bottom
   rung produces non-finite logits (the input itself is garbage), the
   batch is answered with uniform logits and counted as
   ``fallback_frames``.

The wrapper exposes the same ``prepare``/``forward``/``reset`` protocol
as any :class:`~repro.adapt.base.AdaptationMethod`, so it drops into the
study runner and streaming harness unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.adapt import build_method
from repro.adapt.base import AdaptationMethod
from repro.adapt.diagnostics import (
    has_nonfinite_bn_state,
    mean_prediction_entropy,
    stats_drift,
)
from repro.adapt.state import BNState

#: the degradation ladder, strongest adaptation first
LADDER = ("bn_opt", "bn_norm", "no_adapt")


@dataclass(frozen=True)
class GuardConfig:
    """Thresholds and pacing of the guard.

    Parameters
    ----------
    entropy_floor:
        Entropy-collapse threshold as a fraction of the maximum entropy
        ``ln(C)``: mean prediction entropy below ``entropy_floor * ln(C)``
        on an *adapting* rung is treated as collapse (TENT's failure
        mode: confidently wrong on everything).
    drift_limit:
        BN statistics drift (mean normalized L2 from the prepare-time
        stats, :func:`repro.adapt.diagnostics.stats_drift`) above this is
        a blow-up.  NaN drift always violates.
    cooldown:
        Consecutive healthy batches required at a degraded rung before
        re-escalating one rung toward the initial method.
    """

    entropy_floor: float = 0.01
    drift_limit: float = 50.0
    cooldown: int = 3

    def __post_init__(self):
        if not 0.0 <= self.entropy_floor < 1.0:
            raise ValueError("entropy_floor must be in [0, 1)")
        if self.drift_limit <= 0:
            raise ValueError("drift_limit must be positive")
        if self.cooldown < 1:
            raise ValueError("cooldown must be >= 1")


@dataclass(frozen=True)
class GuardEvent:
    """One guard action on one batch."""

    batch_index: int
    action: str        # "rollback" | "degrade" | "escalate" | "fallback"
    level: str         # method name active *after* the action
    reason: str = ""


class GuardedAdaptation:
    """Wrap an adaptation method with rollback and graceful degradation.

    Use exactly like the wrapped method::

        guard = GuardedAdaptation(BNOpt(lr=1e-3))
        guard.prepare(model)
        logits = guard.forward(batch)     # always finite
        guard.rollbacks, guard.degraded_batches, guard.fallback_frames
    """

    def __init__(self, method: AdaptationMethod,
                 config: Optional[GuardConfig] = None):
        self.method = method
        self.config = config or GuardConfig()
        self.model = None
        self._ladder: List[AdaptationMethod] = []
        self._active = -1   # rung whose _configure currently owns the model
        self._level = 0
        self._healthy_streak = 0
        self._source: Optional[BNState] = None   # drift reference
        self.events: List[GuardEvent] = []
        self.batches_seen = 0
        # guard counters (surfaced in scorecards and study records)
        self.rollbacks = 0
        self.degraded_batches = 0
        self.fallback_frames = 0

    # -- protocol ----------------------------------------------------------
    @property
    def name(self) -> str:
        return f"guarded({self.method.name})"

    @property
    def does_backward(self) -> bool:
        return self.method.does_backward

    @property
    def adapts_bn_stats(self) -> bool:
        return self.method.adapts_bn_stats

    @property
    def level_name(self) -> str:
        """Name of the currently active ladder rung."""
        return self._ladder[self._level].name if self._ladder else self.method.name

    @property
    def batches_adapted(self) -> int:
        return sum(m.batches_adapted for m in self._ladder)

    def prepare(self, model) -> "GuardedAdaptation":
        self.model = model
        self.method.prepare(model)
        self._ladder = [self.method] + [
            build_method(name) for name in self._fallback_names()]
        self._active = 0
        self._level = 0
        self._healthy_streak = 0
        self._source = BNState.capture(model)
        self.events.clear()
        self.batches_seen = 0
        self.rollbacks = 0
        self.degraded_batches = 0
        self.fallback_frames = 0
        return self

    def reset(self) -> None:
        """Restore the pristine pre-adaptation state and re-arm the guard."""
        if self.model is None:
            raise RuntimeError("reset() before prepare()")
        self.method.reset()
        self.prepare(self.model)

    def runtime_state(self) -> dict:
        """Mid-stream guard state for session checkpoints.

        Captures the ladder position, cooldown progress, counters, and
        every rung's :meth:`~repro.adapt.base.AdaptationMethod.runtime_state`
        (only the *active* rung's optimizer moments matter — inactive
        rungs are rebuilt on activation — but per-rung ``batches_adapted``
        keeps :attr:`batches_adapted` exact).  ``events`` are diagnostic
        and deliberately not checkpointed.
        """
        if not self._ladder:
            raise RuntimeError("runtime_state() before prepare()")
        return {
            "level": self._level,
            "healthy_streak": self._healthy_streak,
            "batches_seen": self.batches_seen,
            "rollbacks": self.rollbacks,
            "degraded_batches": self.degraded_batches,
            "fallback_frames": self.fallback_frames,
            "ladder": [rung.runtime_state() for rung in self._ladder],
        }

    def load_runtime_state(self, state: dict) -> None:
        """Restore :meth:`runtime_state` onto a freshly prepared guard.

        The model must already hold the checkpointed (adapted) state;
        the active rung is re-bound so its train/eval + grad modes and
        optimizer own the model exactly as at checkpoint time.
        """
        if not self._ladder:
            raise RuntimeError("load_runtime_state() before prepare()")
        if len(state["ladder"]) != len(self._ladder):
            raise ValueError(
                f"checkpoint has {len(state['ladder'])} ladder rungs; "
                f"this guard has {len(self._ladder)}")
        self._level = int(state["level"])
        self._healthy_streak = int(state["healthy_streak"])
        self.batches_seen = int(state["batches_seen"])
        self.rollbacks = int(state["rollbacks"])
        self.degraded_batches = int(state["degraded_batches"])
        self.fallback_frames = int(state["fallback_frames"])
        # force a bind: the active rung's optimizer must be rebuilt over
        # the restored model before its moments are loaded into it
        self._active = -1
        self._activate(self._level)
        for rung, rung_state in zip(self._ladder, state["ladder"]):
            rung.load_runtime_state(rung_state)

    def _fallback_names(self) -> List[str]:
        """Ladder rungs strictly below the wrapped method."""
        if self.method.name in LADDER:
            start = LADDER.index(self.method.name) + 1
        elif self.method.does_backward:
            start = 1          # backward methods sit at the bn_opt tier
        elif self.method.adapts_bn_stats:
            start = 2          # stats-only methods sit at the bn_norm tier
        else:
            start = len(LADDER)
        return list(LADDER[start:])

    # -- the guarded step --------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.model is None or not self._ladder:
            raise RuntimeError("forward() before prepare()")
        index = self.batches_seen
        self.batches_seen += 1
        snapshot = BNState.capture(self.model)
        while True:
            method = self._activate(self._level)
            logits = method.forward(x)
            violation = self._violation(logits, adapting=method.adapts_bn_stats
                                        or method.does_backward)
            if violation is None:
                self._after_healthy(index)
                return logits
            snapshot.apply(self.model)
            # rebuild optimizer/mode state of the failed rung so its
            # (potentially NaN-contaminated) Adam moments cannot leak
            # into a later re-escalation
            method.bind(self.model)
            self._active = self._level
            self.rollbacks += 1
            self.events.append(GuardEvent(
                batch_index=index, action="rollback",
                level=method.name, reason=violation))
            if self._level + 1 < len(self._ladder):
                self._level += 1
                self._healthy_streak = 0
                self.events.append(GuardEvent(
                    batch_index=index, action="degrade",
                    level=self.level_name, reason=violation))
                continue
            # bottom of the ladder: answer with uniform logits so the
            # stream keeps flowing with a finite (chance-level) result
            self.degraded_batches += 1
            self.fallback_frames += len(x)
            self._healthy_streak = 0
            self.events.append(GuardEvent(
                batch_index=index, action="fallback",
                level=self.level_name, reason=violation))
            return np.zeros_like(logits)

    def _after_healthy(self, index: int) -> None:
        if self._level == 0:
            return
        self.degraded_batches += 1
        self._healthy_streak += 1
        if self._healthy_streak >= self.config.cooldown:
            self._level -= 1
            self._healthy_streak = 0
            self.events.append(GuardEvent(
                batch_index=index, action="escalate",
                level=self.level_name,
                reason=f"{self.config.cooldown} healthy batches"))

    def _activate(self, level: int) -> AdaptationMethod:
        """Make ``level``'s method own the model's train/eval + grad modes."""
        method = self._ladder[level]
        if self._active != level:
            method.bind(self.model)
            self._active = level
        return method

    # -- health checks -----------------------------------------------------
    def _violation(self, logits: np.ndarray, adapting: bool) -> Optional[str]:
        if not np.isfinite(logits).all():
            return "nonfinite_logits"
        if has_nonfinite_bn_state(self.model):
            return "nonfinite_bn_state"
        if adapting:
            num_classes = logits.shape[-1]
            entropy = mean_prediction_entropy(logits)
            if entropy < self.config.entropy_floor * np.log(num_classes):
                return "entropy_collapse"
            drift = stats_drift(self.model, self._source)
            # NaN drift must violate: express as "not provably healthy"
            if not drift <= self.config.drift_limit:
                return "stats_drift_blowup"
        return None

    def __repr__(self) -> str:
        return f"GuardedAdaptation({self.method!r})"
