"""Process-parallel sweep execution.

The study grid is embarrassingly parallel — (model, method, batch size)
cells share nothing but read-only inputs — yet the resilience layer
drives them strictly one by one.  This package scales that same
execution contract to N worker processes:

- :mod:`repro.parallel.executor` — :class:`ParallelExecutor`: partitions
  cells across ``multiprocessing`` (spawn) workers, funnels results and
  journal events through a single-writer queue (the parent is the only
  journal writer), detects crashed workers, and merges records in
  canonical grid order so parallel output is byte-equal to serial for
  deterministic cells;
- :mod:`repro.parallel.worker` — the worker-process entry point; drives
  cells through the *same* attempt loop as the serial executor
  (:func:`repro.core.executor.run_cell_attempts`) and seeds
  deterministically from each cell key;
- :mod:`repro.parallel.filelock` — advisory inter-process
  :class:`FileLock`, used by the shared pretrain-checkpoint cache so N
  workers never train the same model concurrently.

Select it from the study config (``StudyConfig.workers``) or the CLI
(``python -m repro native --workers N``); ``workers=0`` keeps the
serial :class:`~repro.core.executor.ResilientExecutor` path.

The package imports nothing up front: each name below loads its
submodule on first access, so the pretrain cache's
``repro.parallel.filelock`` does not bring the executor, the worker and
the study harness of :mod:`repro.core` with it.
"""

from __future__ import annotations

import importlib

#: public name -> the submodule that defines it
_EXPORTS = {
    "CellRunner": "worker",
    "CellTask": "worker",
    "FileLock": "filelock",
    "FileLockTimeout": "filelock",
    "ParallelExecutor": "executor",
    "WorkerCrashError": "executor",
    "seed_for_cell": "worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
