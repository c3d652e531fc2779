"""Scenario engine: continual, correlated, and recurring shift streams.

The study grid evaluates i.i.d. single-corruption batches; this package
generates *deployment-shaped* traffic — Markov-switching corruptions,
recurring cyclic shifts, severity ramps, class-imbalanced batches, and
budgeted adaptation windows — as seeded, fingerprinted schedules that
plug into the stream driver, the study runner, and the serve layer.

Layers (each importable on its own):

- :mod:`repro.scenarios.spec` — the frozen :class:`ScenarioSpec` and
  its compact string grammar (``markov:p=0.1@3``);
- :mod:`repro.scenarios.schedule` — :class:`ScenarioSchedule`, the
  seeded realization producing per-batch :class:`BatchPlan`s and
  :class:`Segment` structure;
- :mod:`repro.scenarios.stream` — :class:`ScenarioStream`, a dataset
  played through a schedule (drop-in batch source);
- :mod:`repro.scenarios.metrics` — per-batch :class:`BatchStats`,
  per-phase :class:`SegmentCard` aggregation, the recurrence forgetting
  metric, and :class:`ScenarioOutcome`.

A scenario run is a plain stream run:
:func:`~repro.serve.session.run_stream` plays ``stream.batches(...)``
with ``schedule=stream.schedule``, which gates adaptation per batch
under ``budgeted``, and returns per-batch stats;
:meth:`ScenarioOutcome.from_run` segments them afterwards.
"""

from repro.scenarios.metrics import (
    BatchStats,
    ScenarioOutcome,
    SegmentCard,
    recurrence_forgetting,
    segment_cards,
)
from repro.scenarios.schedule import (
    BatchPlan,
    ScenarioSchedule,
    Segment,
    as_schedule,
)
from repro.scenarios.spec import (
    KIND_PARAMS,
    SCENARIO_KINDS,
    SWITCHING_KINDS,
    ScenarioSpec,
    parse_scenario_spec,
)
from repro.scenarios.stream import ScenarioStream

__all__ = [
    "BatchPlan",
    "BatchStats",
    "KIND_PARAMS",
    "SCENARIO_KINDS",
    "SWITCHING_KINDS",
    "ScenarioOutcome",
    "ScenarioSchedule",
    "ScenarioSpec",
    "ScenarioStream",
    "Segment",
    "SegmentCard",
    "as_schedule",
    "parse_scenario_spec",
    "recurrence_forgetting",
    "segment_cards",
]
