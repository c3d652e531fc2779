"""Seeded scenario schedules: spec + seed -> per-batch plans.

A :class:`ScenarioSchedule` realizes one :class:`~repro.scenarios.spec.
ScenarioSpec` under one seed into a deterministic, infinite sequence of
:class:`BatchPlan`s — for every batch index, which corruption at which
severity, whether adaptation may run, and (for ``imbalanced``) the
class-weight vector the stream samples labels from.

Determinism follows the :class:`~repro.robustness.faults.FaultSchedule`
discipline: stochastic decisions (Markov transitions) are drawn *in
batch order* from one seeded generator and memoized, so
``plan_for(index)`` returns the same plan no matter the query order or
how far the stream has run; per-batch randomness that must not shift
other batches (Dirichlet class weights) is drawn from a per-index child
generator via ``np.random.SeedSequence``.  The byte-identity tests in
``tests/test_scenarios`` pin exactly these properties — across runs,
across query orders, and across process-parallel workers.

:meth:`ScenarioSchedule.segments` groups a finite prefix of the plan
into contiguous *shift segments* — maximal runs of one
``(corruption, severity)`` phase, each stamped with its recurrence
visit ordinal — the unit the per-phase scorecard metrics
(:mod:`repro.scenarios.metrics`) aggregate over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.scenarios.spec import ScenarioSpec, parse_scenario_spec

#: severity recorded for clean phases (clean has no severity level)
CLEAN_SEVERITY = 0


@dataclass(frozen=True)
class BatchPlan:
    """What one batch of a scenario stream looks like.

    ``class_weights`` is ``None`` except under ``imbalanced``, where it
    is the per-class sampling weight vector (a tuple, so plans stay
    hashable and comparable).  ``adapt`` is ``False`` only inside the
    frozen windows of a ``budgeted`` scenario.
    """

    index: int
    corruption: str
    severity: int
    adapt: bool = True
    class_weights: Optional[Tuple[float, ...]] = None


@dataclass(frozen=True)
class Segment:
    """One contiguous shift phase of a finite scenario prefix.

    ``visit`` counts recurrences: the ``visit``-th time (0-based) this
    exact ``(corruption, severity)`` phase has appeared in the stream —
    the handle the forgetting metric keys on.  ``start``/``end`` are
    batch indices, end-exclusive.
    """

    ordinal: int
    corruption: str
    severity: int
    start: int
    end: int
    visit: int

    @property
    def num_batches(self) -> int:
        return self.end - self.start


class ScenarioSchedule:
    """Deterministic realization of a scenario spec under one seed."""

    def __init__(self, spec: ScenarioSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        self._rng = np.random.default_rng(
            np.random.SeedSequence((seed, 0)))
        self._decided: Dict[int, BatchPlan] = {}
        self._next_index = 0
        self._markov_state = 0
        if spec.kind == "markov":
            self._markov_state = int(self._rng.integers(len(spec.over)))

    @property
    def label(self) -> str:
        """The compact spec form — what scorecards/records are stamped with."""
        return self.spec.compact()

    def fingerprint(self) -> str:
        """Digest of (spec, seed): two schedules agree iff these match."""
        return f"{self.spec.fingerprint()}-{self.seed}"

    # -- per-batch plans ---------------------------------------------------

    def plan_for(self, batch_index: int) -> BatchPlan:
        """The plan for ``batch_index`` (memoized, drawn in order)."""
        if batch_index < 0:
            raise IndexError(f"batch index must be >= 0, got {batch_index}")
        while self._next_index <= batch_index:
            self._decided[self._next_index] = self._decide(self._next_index)
            self._next_index += 1
        return self._decided[batch_index]

    def plan(self, num_batches: int) -> List[BatchPlan]:
        """Plans for a finite stream prefix."""
        return [self.plan_for(index) for index in range(num_batches)]

    def _severity_for(self, corruption: str, severity: int) -> int:
        return CLEAN_SEVERITY if corruption == "clean" else severity

    def _decide(self, index: int) -> BatchPlan:
        spec = self.spec
        kind = spec.kind
        if kind == "markov":
            if index > 0 and self._rng.random() < spec.param("p"):
                # jump to a *different* state: offset in 1..len-1
                offset = int(self._rng.integers(1, len(spec.over)))
                self._markov_state = (self._markov_state + offset) \
                    % len(spec.over)
            corruption = spec.over[self._markov_state]
            return BatchPlan(index, corruption,
                             self._severity_for(corruption, spec.severity))
        if kind == "cyclic":
            dwell = int(spec.param("dwell"))
            corruption = spec.over[(index // dwell) % len(spec.over)]
            return BatchPlan(index, corruption,
                             self._severity_for(corruption, spec.severity))
        if kind == "ramp":
            dwell = int(spec.param("dwell"))
            rungs = _ramp_rungs(spec.severity)
            severity = rungs[(index // dwell) % len(rungs)]
            return BatchPlan(index, spec.over[0], severity)
        if kind == "imbalanced":
            corruption = spec.over[0]
            weights = self._class_weights(index)
            return BatchPlan(index, corruption,
                             self._severity_for(corruption, spec.severity),
                             class_weights=weights)
        # budgeted: adapt only in the first `budget` batches of each period
        corruption = spec.over[0]
        period = int(spec.param("period"))
        budget = int(spec.param("budget"))
        return BatchPlan(index, corruption,
                         self._severity_for(corruption, spec.severity),
                         adapt=(index % period) < budget)

    def _class_weights(self, index: int, num_classes: int = 10
                       ) -> Tuple[float, ...]:
        # per-index child generator: one batch's draw never shifts
        # another's, so plans are stable under any query order
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, 2, index)))
        alpha = self.spec.param("alpha")
        weights = rng.dirichlet(np.full(num_classes, alpha))
        return tuple(float(w) for w in weights)

    # -- segmentation ------------------------------------------------------

    def segments(self, num_batches: int) -> List[Segment]:
        """Contiguous (corruption, severity) phases of a finite prefix."""
        if num_batches <= 0:
            raise ValueError(
                f"num_batches must be positive, got {num_batches}")
        plans = self.plan(num_batches)
        segments: List[Segment] = []
        visits: Dict[Tuple[str, int], int] = {}
        start = 0
        for index in range(1, num_batches + 1):
            if index < num_batches and (
                    plans[index].corruption == plans[start].corruption
                    and plans[index].severity == plans[start].severity):
                continue
            phase = (plans[start].corruption, plans[start].severity)
            visit = visits.get(phase, 0)
            visits[phase] = visit + 1
            segments.append(Segment(
                ordinal=len(segments), corruption=phase[0],
                severity=phase[1], start=start, end=index, visit=visit))
            start = index
        return segments


def _ramp_rungs(peak: int) -> Tuple[int, ...]:
    """Triangle severity wave 1 -> peak -> 2, repeating.

    The descending leg stops at 2 so the wrap back to 1 does not dwell
    twice at the bottom (for ``peak <= 2`` the wave is just the ascent).
    """
    up = tuple(range(1, peak + 1))
    down = tuple(range(peak - 1, 1, -1))
    return up + down


def as_schedule(spec: Union[str, ScenarioSpec, ScenarioSchedule],
                seed: int = 0) -> ScenarioSchedule:
    """Coerce a compact string / spec / schedule into a fresh schedule.

    Strings parse through :func:`~repro.scenarios.spec.
    parse_scenario_spec`; an existing schedule is rebuilt from its spec
    and the *given* seed so callers always get an unconsumed schedule.
    """
    if isinstance(spec, ScenarioSchedule):
        return ScenarioSchedule(spec.spec, seed=seed)
    if isinstance(spec, str):
        spec = parse_scenario_spec(spec)
    return ScenarioSchedule(spec, seed=seed)
