"""Robustness layer: fault injection, guarded adaptation, degradation.

The paper's deployment scenarios (drones, remote sensors, medical
scanners) adapt **without labels**, so nothing tells the operator when a
bad batch has poisoned the BN statistics every later frame depends on.
This package makes the streaming story deployable rather than
best-case-only:

- :mod:`repro.robustness.faults` — seeded injection of the faults edge
  pipelines actually produce (NaN/Inf pixels, constant batches,
  wrong-range inputs, truncated batches, duplicated frames);
- :mod:`repro.robustness.guard` — :class:`GuardedAdaptation`: per-batch
  BN snapshots, label-free health checks, bit-identical rollback and a
  ``bn_opt -> bn_norm -> no_adapt`` degradation ladder with cooldown.

Streams are played through both by the one stream driver,
:func:`repro.serve.session.run_stream`: it wraps the batches in a
:class:`FaultInjector`, and an
:class:`~repro.serve.session.AdaptationSession` built with
``guard=True`` runs the method under :class:`GuardedAdaptation`.
"""

from repro.robustness.faults import (
    FAULT_NAMES,
    POISONING_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    apply_fault,
    check_fault_names,
    parse_fault_specs,
)
from repro.robustness.guard import (
    LADDER,
    GuardConfig,
    GuardedAdaptation,
    GuardEvent,
)

__all__ = [
    "FAULT_NAMES",
    "POISONING_FAULTS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "apply_fault",
    "check_fault_names",
    "parse_fault_specs",
    "LADDER",
    "GuardConfig",
    "GuardedAdaptation",
    "GuardEvent",
]
