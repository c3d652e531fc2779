"""Worker-process side of the process-parallel cell scheduler.

A worker is a plain ``multiprocessing`` process (``spawn`` start method,
so it never inherits interpreter state it should not) that pulls
:class:`CellTask`s off the shared task queue, drives each one through
the *same* attempt loop as the serial executor
(:func:`repro.core.executor.run_cell_attempts` — bounded retries,
seeded backoff, soft-deadline watchdog), and forwards every journal
event to the parent through the single-writer event queue.  Workers
never touch the journal file themselves; the parent is the only writer.

Everything crossing the spawn boundary is plain picklable data:
``CellTask.runner`` must be a module-level callable (pickled by
reference and re-imported in the child), ``payload`` is an arbitrary
per-run pickle shipped once per worker, and results travel as the
JSON-safe record dicts of :func:`repro.core.io.record_to_dict` — the
exact serialization the journal itself uses, so a parallel merge and a
journal replay reconstruct bit-identical records.

Before a cell runs, the worker reseeds numpy's *global* RNG from
``(policy.seed, cell key)`` via :func:`seed_for_cell`.  Cell code is
expected to use its own seeded generators (the native runner does), but
the reseed makes any stray ``np.random`` use deterministic per cell
rather than dependent on which worker picked the cell up.

A worker holds BLAS at one thread for its whole life
(:mod:`repro.engine.blas`): the worker processes are the sweep's
parallelism, and a per-core BLAS pool in each would oversubscribe the
cores they share.
"""

from __future__ import annotations

import time
import traceback
import zlib
from dataclasses import dataclass
from typing import Any, Callable, List

import numpy as np

from repro.core.records import MeasurementRecord
from repro.core.executor import (CellSpec, RetryPolicy,
                                       run_cell_attempts)
from repro.engine.blas import SingleBlasThread

#: a cell runner: module-level callable of (payload, spec) -> records
CellRunner = Callable[[Any, CellSpec], List[MeasurementRecord]]

#: queue sentinel telling a worker to exit cleanly
SHUTDOWN = None


@dataclass(frozen=True)
class CellTask:
    """One unit of work shipped to a worker (picklable)."""

    index: int
    spec: CellSpec
    runner: CellRunner


def seed_for_cell(seed: int, key: str) -> int:
    """Deterministic 32-bit seed for a cell, independent of scheduling."""
    return (seed ^ zlib.crc32(key.encode("utf-8"))) & 0xFFFFFFFF


def worker_main(worker_id: int, task_queue, event_queue,
                policy: RetryPolicy, payload: Any) -> None:
    """Pull tasks until the shutdown sentinel; funnel events to parent."""

    def emit(entry: dict) -> None:
        event_queue.put({**entry, "worker": worker_id})

    emit({"event": "worker_start"})
    blas = SingleBlasThread()
    try:
        while True:
            task = task_queue.get()
            if task is SHUTDOWN:
                break
            # deliberate belt-and-braces reseed of the legacy global
            # RNG: stray np.random use in a cell stays deterministic
            np.random.seed(seed_for_cell(policy.seed, task.spec.key))  # repro: noqa[REP001]

            def fn(task: CellTask = task) -> List[MeasurementRecord]:
                return task.runner(payload, task.spec)

            # run_cell_attempts emits cell_start/cell_failed/cell_ok;
            # a final cell_failed already tells the parent the cell is
            # settled, so exhaustion needs no extra event here.
            run_cell_attempts(task.spec, fn, policy, emit, time.sleep)
    except Exception:                     # noqa: BLE001 — the parent must
        # hear about a broken worker loop (bad payload, queue failure)
        # rather than diagnose a silent exit
        emit({"event": "worker_error",
              "traceback": traceback.format_exc()})
        raise
    finally:
        blas.release()
        emit({"event": "worker_exit"})
