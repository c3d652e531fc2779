"""The measurement-study harness — the paper's primary contribution.

This package orchestrates everything the substrates provide into the
paper's experiments:

- :mod:`repro.core.config` — the study grid (models x adaptation methods
  x batch sizes x devices) and case naming ("WRN-AM-50" etc.).
- :mod:`repro.core.records` — measurement records and result containers.
- :mod:`repro.core.runner` — the two execution modes: ``simulated``
  (full-size model graphs through the device cost models; all
  latency/energy/memory figures) and ``native`` (tiny-profile models
  actually executed on the numpy engine; accuracy figures).
- :mod:`repro.core.executor` —
  :class:`~repro.core.executor.ResilientExecutor`, which drives the
  native grid cell by cell with isolation, retries, a watchdog and
  journal resume.
- :mod:`repro.core.objectives` — the weighted multi-objective
  ``w1*time + w2*energy + w3*error`` with the paper's four weight cases
  and three normalization schemes.
- :mod:`repro.core.pareto` — Pareto-front utilities over the three costs.
- :mod:`repro.core.reference` — the paper's reported numbers (Fig. 2
  accuracy grid reconstructed to satisfy every stated value and
  aggregate; see the module docstring).
- :mod:`repro.core.report` — text renderers for each figure/table.
"""

from repro.core.config import (
    PAPER_BATCH_SIZES,
    STUDY_METHODS,
    STUDY_MODELS,
    Case,
    StudyConfig,
    case_label,
)
from repro.core.objectives import (
    WEIGHT_CASES,
    WeightCase,
    normalize_records,
    score_records,
    select_best,
)
from repro.core.pareto import pareto_front
from repro.core.records import MeasurementRecord, StudyResult
from repro.core.runner import run_native_study, run_simulated_study

__all__ = [
    "Case",
    "StudyConfig",
    "case_label",
    "STUDY_MODELS",
    "STUDY_METHODS",
    "PAPER_BATCH_SIZES",
    "MeasurementRecord",
    "StudyResult",
    "run_simulated_study",
    "run_native_study",
    "WEIGHT_CASES",
    "WeightCase",
    "normalize_records",
    "score_records",
    "select_best",
    "pareto_front",
]
