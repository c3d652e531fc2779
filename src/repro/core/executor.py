"""Cell-by-cell resilient execution of a study grid.

:class:`ResilientExecutor` owns the control loop the native runner used
to inline: it drives a sequence of *cells* (one isolated callable per
(model, method, batch size) grid point, each returning the cell's
``MeasurementRecord`` list) and makes the sweep survive what edge
measurement campaigns actually hit:

- **exception isolation** — a raising cell becomes a ``status="failed"``
  record (its traceback journaled) and the sweep continues;
- **soft-deadline watchdog** — a cell that exceeds ``cell_timeout``
  seconds is abandoned (its worker thread is daemonic), recorded as
  ``status="timeout"``, and the sweep continues;
- **bounded retry** — failed attempts are retried up to ``max_retries``
  times with deterministic seeded exponential backoff, so a transient
  fault (thermal throttle, flaky I/O) does not cost the cell;
- **journaling + resume** — every outcome is durably appended to a
  :class:`~repro.resilience.journal.RunJournal`; with ``resume=True``
  cells already journaled ``ok`` are *not* re-executed — their records
  are replayed from the journal, so the same journal always merges into
  a bit-identical :class:`~repro.core.records.StudyResult`.

The executor is generic over what a cell computes; only
:class:`CellSpec` ties it to the study grid's coordinates (needed to
synthesize a placeholder record when a cell ultimately fails).

The per-cell attempt loop lives in the module-level
:func:`run_cell_attempts` (parameterized by a
:class:`~repro.resilience.retry.RetryPolicy` and an ``emit`` callback
for journal-schema events) so the process-parallel scheduler
(:mod:`repro.parallel`) drives the *same* retry, watchdog, and
journaling semantics from inside its worker processes — the only
difference is where the emitted events end up (appended to the journal
directly here; funnelled through the single-writer result queue there).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.io import record_from_dict, record_to_dict
from repro.core.records import MeasurementRecord, StudyResult
from repro.resilience.journal import RunJournal
from repro.resilience.retry import RetryPolicy


class CellTimeoutError(RuntimeError):
    """A cell exceeded its soft deadline (the watchdog gave up on it)."""


@dataclass(frozen=True)
class CellSpec:
    """Grid coordinates of one executable cell."""

    key: str
    model: str
    method: str
    batch_size: int
    device: str = "host"
    backend: str = ""
    guarded: bool = False


CellFn = Callable[[], List[MeasurementRecord]]
EmitFn = Callable[[dict], None]


@dataclass
class ExecutorStats:
    """What the executor did, for logs and CLI summaries."""

    executed: int = 0
    skipped: int = 0
    failed: int = 0
    retries: int = 0


def call_with_deadline(fn: CellFn, timeout: float) -> List[MeasurementRecord]:
    """Run ``fn``; abandon it past ``timeout`` seconds (0 = run inline).

    The soft deadline runs ``fn`` on a daemonic thread and gives up on
    it (the thread keeps running but nobody waits) — a *soft* watchdog,
    the strongest guarantee a single process can give.
    """
    if timeout <= 0:
        return fn()
    box: dict = {}

    def target() -> None:
        try:
            box["result"] = fn()
        except BaseException as error:   # noqa: BLE001 — re-raised below
            box["error"] = error

    worker = threading.Thread(target=target, daemon=True,
                              name="repro-cell-watchdog")
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise CellTimeoutError(
            f"cell exceeded soft deadline of {timeout:g}s")
    if "error" in box:
        raise box["error"]
    return box["result"]


def run_cell_attempts(spec: CellSpec, fn: CellFn, policy: RetryPolicy,
                      emit: EmitFn,
                      sleep: Callable[[float], None] = time.sleep,
                      ) -> Tuple[Optional[List[MeasurementRecord]], int,
                                 Optional[BaseException]]:
    """Drive one cell's bounded attempts; returns (records, attempts, error).

    ``records`` is ``None`` when every attempt failed (``error`` is then
    the last one).  Every journal-schema event (``cell_start``,
    ``cell_failed``, ``cell_ok``) is handed to ``emit`` as it happens.
    After the *final* failed attempt the loop exits immediately — no
    trailing backoff is slept (there is no next attempt to space out).
    """
    last_error: Optional[BaseException] = None
    for attempt in range(1, policy.attempts + 1):
        emit({"event": "cell_start", "cell": spec.key, "attempt": attempt})
        try:
            records = call_with_deadline(fn, policy.cell_timeout)
        except Exception as error:       # noqa: BLE001 — isolation is
            # the point; KeyboardInterrupt et al. still propagate
            final = attempt == policy.attempts
            emit({
                "event": "cell_failed", "cell": spec.key,
                "attempt": attempt, "final": final,
                "error": f"{type(error).__name__}: {error}",
                "error_type": type(error).__name__,
                "traceback": traceback.format_exc()})
            last_error = error
            if final:
                break
            sleep(policy.backoff_delay(spec.key, attempt))
            continue
        stamped = [replace(r, status="ok", attempts=attempt)
                   for r in records]
        emit({"event": "cell_ok", "cell": spec.key, "attempt": attempt,
              "records": [record_to_dict(r) for r in stamped]})
        return stamped, attempt, None
    return None, policy.attempts, last_error


def make_failed_record(spec: CellSpec, attempts: int,
                       status: str = "failed") -> MeasurementRecord:
    """Placeholder record for a cell that never produced measurements."""
    return MeasurementRecord(
        model=spec.model, method=spec.method,
        batch_size=spec.batch_size, device=spec.device,
        error_pct=float("nan"), forward_time_s=float("nan"),
        energy_j=float("nan"), backend=spec.backend,
        guarded=spec.guarded, status=status, attempts=attempts)


def recover_completed(journal: RunJournal, fingerprint: str) -> dict:
    """Scan a journal for resumable cells, refusing a foreign config."""
    scan = journal.scan()
    recorded = scan.fingerprint
    if recorded is not None and fingerprint and recorded != fingerprint:
        raise ValueError(
            f"journal {journal.path} was written by a different "
            f"study configuration (fingerprint {recorded} != "
            f"{fingerprint}); refusing to resume")
    return scan.completed_cells()


class ResilientExecutor:
    """Drive study cells with isolation, watchdog, retries, and resume.

    Parameters
    ----------
    journal:
        Optional :class:`RunJournal`; without one the executor still
        isolates and retries but nothing is durable (and ``resume`` is
        meaningless).
    resume:
        Skip cells the journal already records as ``ok``, replaying
        their journaled records into the merged result.  Requires the
        journal's ``run_start`` fingerprint to match ``fingerprint`` —
        resuming under a different config would silently merge
        incomparable measurements.
    max_retries:
        Extra attempts per failing cell (0 = one attempt).
    cell_timeout:
        Soft deadline in seconds per attempt (0 = no watchdog; cells
        run inline on the calling thread).
    backoff_base:
        First retry delay in seconds; attempt ``k`` waits
        ``backoff_base * 2**(k-1)`` scaled by a seeded jitter in
        [0.5, 1.5), deterministic per (seed, cell, attempt).
    sleep:
        Injection point for tests (defaults to :func:`time.sleep`).
    """

    def __init__(self, journal: Optional[RunJournal] = None, *,
                 resume: bool = False, max_retries: int = 0,
                 cell_timeout: float = 0.0, backoff_base: float = 0.05,
                 seed: int = 0, fingerprint: str = "",
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.policy = RetryPolicy(max_retries=max_retries,
                                  cell_timeout=cell_timeout,
                                  backoff_base=backoff_base, seed=seed)
        self.journal = journal
        self.resume = resume
        self.fingerprint = fingerprint
        self.sleep = sleep
        self.stats = ExecutorStats()
        self._completed = recover_completed(journal, fingerprint) \
            if (journal and resume) else {}

    @property
    def max_retries(self) -> int:
        return self.policy.max_retries

    @property
    def cell_timeout(self) -> float:
        return self.policy.cell_timeout

    # -- the drive loop -----------------------------------------------

    def run(self, cells: Sequence[Tuple[CellSpec, CellFn]]) -> StudyResult:
        """Execute (or replay) every cell, in order; merge the records."""
        self._append({"event": "run_resume" if (self.resume and
                                                self._completed) else
                      "run_start", "fingerprint": self.fingerprint,
                      "cells": len(cells)})
        result = StudyResult()
        for spec, fn in cells:
            journaled = self._completed.get(spec.key)
            if journaled is not None:
                for row in journaled:
                    result.add(record_from_dict(row))
                self.stats.skipped += 1
                continue
            for record in self._run_cell(spec, fn):
                result.add(record)
        self._append({"event": "run_end", "executed": self.stats.executed,
                      "skipped": self.stats.skipped,
                      "failed": self.stats.failed})
        return result

    def _run_cell(self, spec: CellSpec,
                  fn: CellFn) -> List[MeasurementRecord]:
        records, attempts, error = run_cell_attempts(
            spec, fn, self.policy, self._append, self.sleep)
        self.stats.retries += attempts - 1
        if records is None:
            self.stats.failed += 1
            status = "timeout" if isinstance(error, CellTimeoutError) \
                else "failed"
            return [make_failed_record(spec, attempts, status)]
        self.stats.executed += 1
        return records

    # -- helpers ------------------------------------------------------

    def _backoff_delay(self, key: str, attempt: int) -> float:
        return self.policy.backoff_delay(key, attempt)

    def _append(self, entry: dict) -> None:
        if self.journal is not None:
            self.journal.append(entry)
