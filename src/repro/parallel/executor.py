"""Process-pool cell scheduler with a single-writer journal funnel.

:class:`ParallelExecutor` extends the resilience layer's cell execution
(:class:`~repro.core.executor.ResilientExecutor`) to N worker
*processes*.  The contract it keeps:

- **same semantics, funnelled** — each worker drives its cells through
  the very attempt loop the serial executor uses (bounded retries,
  seeded backoff, soft-deadline watchdog) and streams the resulting
  journal events to the parent over one result queue.  The parent is
  the *only* journal writer, so the JSONL journal stays an append-only
  single-writer file with exactly the serial event vocabulary (plus a
  ``worker`` id on funnelled entries);
- **canonical merge order** — records are merged in the caller's cell
  order, not arrival order, so the merged
  :class:`~repro.core.records.StudyResult` of a parallel run is
  byte-equal (via :func:`repro.core.io.dumps`) to its serial twin for
  deterministic cells, and identical modulo wall-clock fields always;
- **crash containment** — a worker that dies mid-cell (OOM-killed,
  segfaulted, ``os._exit``) is detected by liveness polling; its
  in-flight cell is journaled as a final ``cell_failed`` and becomes a
  ``status="failed"`` record while the surviving workers finish the
  sweep.  If the whole pool dies, every not-yet-settled cell is failed
  the same way instead of hanging the parent.  The event funnel is a
  :class:`multiprocessing.SimpleQueue`, whose ``put`` writes straight
  to the pipe (no background feeder thread): an event a worker has
  emitted is already in the parent's pipe, so killing that worker an
  instant later can never un-settle cells it reported finished;
- **resume interop** — resume/fingerprint semantics are shared with the
  serial executor (:func:`~repro.core.executor.recover_completed`),
  so a journal written serially can be resumed in parallel and vice
  versa, replaying completed cells bit-identically.

Workers are started with the ``spawn`` method: each child begins from a
fresh interpreter, re-imports the cell runner by reference, re-enters
its own execution backend, and seeds deterministically from the cell
key — nothing depends on forked parent state, so the scheduler behaves
identically on Linux, macOS, and Windows.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.io import record_from_dict
from repro.core.records import StudyResult
from repro.core.executor import (CellSpec, ExecutorStats, RetryPolicy,
                                       make_failed_record, recover_completed)
from repro.resilience.journal import RunJournal
from repro.parallel.worker import SHUTDOWN, CellRunner, CellTask, worker_main

#: poll interval for the event funnel (also the liveness-check cadence)
_POLL_S = 0.2

#: consecutive empty polls a dead worker must survive before its
#: in-flight cell is declared crashed (lets late queue flushes land)
_DEATH_STRIKES = 2


class WorkerCrashError(RuntimeError):
    """A worker process died without settling its in-flight cell."""


class ParallelExecutor:
    """Drive study cells across N worker processes.

    Parameters mirror :class:`~repro.core.executor.ResilientExecutor`
    (journal, resume, max_retries, cell_timeout, backoff_base, seed,
    fingerprint) plus:

    workers:
        Number of worker processes (>= 1).  The pool never exceeds the
        number of pending cells.
    start_method:
        ``multiprocessing`` start method; ``spawn`` (the default) is the
        only one that is identical across platforms and safe with
        threaded parents.
    """

    def __init__(self, journal: Optional[RunJournal] = None, *,
                 workers: int = 2, resume: bool = False,
                 max_retries: int = 0, cell_timeout: float = 0.0,
                 backoff_base: float = 0.05, seed: int = 0,
                 fingerprint: str = "", start_method: str = "spawn") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.policy = RetryPolicy(max_retries=max_retries,
                                  cell_timeout=cell_timeout,
                                  backoff_base=backoff_base, seed=seed)
        self.journal = journal
        self.resume = resume
        self.fingerprint = fingerprint
        self.start_method = start_method
        self.stats = ExecutorStats()
        self._completed = recover_completed(journal, fingerprint) \
            if (journal and resume) else {}

    # -- the drive loop -----------------------------------------------

    def run(self, cells: Sequence[Tuple[CellSpec, CellRunner]],
            payload: Any = None) -> StudyResult:
        """Execute (or replay) every cell; merge in the caller's order.

        ``cells`` pairs each :class:`CellSpec` with a *module-level*
        runner callable ``(payload, spec) -> records`` (pickled by
        reference into the workers).  ``payload`` is shipped once per
        worker — put shared heavyweight inputs (configs, model state)
        there rather than closing over them.
        """
        tasks = [CellTask(index, spec, runner)
                 for index, (spec, runner) in enumerate(cells)
                 if spec.key not in self._completed]
        self._append({"event": "run_resume" if (self.resume and
                                                self._completed) else
                      "run_start", "fingerprint": self.fingerprint,
                      "cells": len(cells), "workers": self.workers})
        outcomes: Dict[str, List[dict]] = {}
        failures: Dict[str, Tuple[int, str]] = {}
        if tasks:
            self._drive(tasks, payload, outcomes, failures)
        result = self._merge(cells, outcomes, failures)
        self._append({"event": "run_end", "executed": self.stats.executed,
                      "skipped": self.stats.skipped,
                      "failed": self.stats.failed})
        return result

    def _drive(self, tasks: Sequence[CellTask], payload: Any,
               outcomes: Dict[str, List[dict]],
               failures: Dict[str, Tuple[int, str]]) -> None:
        ctx = multiprocessing.get_context(self.start_method)
        task_queue = ctx.Queue()
        # SimpleQueue: puts are synchronous pipe writes under a lock, so
        # a worker death cannot lose events it already emitted (a
        # regular Queue buffers in a feeder thread that dies with it)
        event_queue = ctx.SimpleQueue()
        for task in tasks:
            task_queue.put(task)
        pool_size = min(self.workers, len(tasks))
        for _ in range(pool_size):
            task_queue.put(SHUTDOWN)
        workers = {
            worker_id: ctx.Process(
                target=worker_main,
                args=(worker_id, task_queue, event_queue, self.policy,
                      payload),
                daemon=True, name=f"repro-cell-worker-{worker_id}")
            for worker_id in range(pool_size)}
        for process in workers.values():
            process.start()
        in_flight: Dict[int, Tuple[str, int]] = {}   # worker -> (key, att)
        strikes: Dict[int, int] = {}
        settled = 0
        try:
            while settled < len(tasks):
                # single consumer, so polling the read end then getting
                # is race-free (SimpleQueue has no get(timeout=...))
                if not event_queue._reader.poll(_POLL_S):
                    settled += self._reap(workers, in_flight, strikes,
                                          tasks, outcomes, failures)
                    continue
                entry = event_queue.get()
                strikes.clear()           # events flowing: no verdicts yet
                settled += self._handle(entry, in_flight, outcomes,
                                        failures)
        finally:
            for process in workers.values():
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            task_queue.close()
            task_queue.cancel_join_thread()
            event_queue.close()

    def _handle(self, entry: dict, in_flight: Dict[int, Tuple[str, int]],
                outcomes: Dict[str, List[dict]],
                failures: Dict[str, Tuple[int, str]]) -> int:
        """Journal one funnelled event; return 1 if it settled a cell."""
        self._append(entry)
        event = entry.get("event")
        worker_id = entry.get("worker")
        if event == "cell_start":
            in_flight[worker_id] = (entry["cell"], entry["attempt"])
            return 0
        if event == "cell_ok":
            outcomes[entry["cell"]] = entry.get("records", [])
            in_flight.pop(worker_id, None)
            self.stats.executed += 1
            return 1
        if event == "cell_failed":
            if not entry.get("final"):
                self.stats.retries += 1
                return 0
            status = "timeout" if entry.get("error_type") == \
                "CellTimeoutError" else "failed"
            failures[entry["cell"]] = (entry["attempt"], status)
            in_flight.pop(worker_id, None)
            self.stats.failed += 1
            return 1
        return 0                          # worker_start/_exit/_error

    def _reap(self, workers: Dict[int, "multiprocessing.Process"],
              in_flight: Dict[int, Tuple[str, int]],
              strikes: Dict[int, int], tasks: Sequence[CellTask],
              outcomes: Dict[str, List[dict]],
              failures: Dict[str, Tuple[int, str]]) -> int:
        """Detect crashed workers; fail their cells.  Returns # settled.

        A worker is only declared crashed after ``_DEATH_STRIKES``
        consecutive empty polls while dead, so an exit racing its last
        queue flush is not misread as a crash.
        """
        settled = 0
        for worker_id, process in workers.items():
            if process.is_alive():
                continue
            if worker_id in in_flight:
                strikes[worker_id] = strikes.get(worker_id, 0) + 1
                if strikes[worker_id] < _DEATH_STRIKES:
                    continue
                key, attempt = in_flight.pop(worker_id)
                settled += self._crash_cell(
                    key, attempt,
                    f"WorkerCrashError: worker {worker_id} died "
                    f"(exitcode {process.exitcode}) while running the "
                    "cell", worker_id, failures)
        if all(not p.is_alive() for p in workers.values()) \
                and not in_flight:
            # the whole pool is gone: fail whatever never settled so
            # the parent cannot wait forever on an empty funnel
            strikes["pool"] = strikes.get("pool", 0) + 1
            if strikes["pool"] >= _DEATH_STRIKES:
                for task in tasks:
                    key = task.spec.key
                    if key not in outcomes and key not in failures:
                        settled += self._crash_cell(
                            key, 0, "WorkerCrashError: worker pool died "
                            "before the cell was picked up", None,
                            failures)
        return settled

    def _crash_cell(self, key: str, attempt: int, error: str,
                    worker_id: Optional[int],
                    failures: Dict[str, Tuple[int, str]]) -> int:
        self._append({"event": "cell_failed", "cell": key,
                      "attempt": attempt, "final": True, "error": error,
                      "error_type": "WorkerCrashError",
                      "worker": worker_id})
        failures[key] = (attempt, "failed")
        self.stats.failed += 1
        return 1

    # -- merging ------------------------------------------------------

    def _merge(self, cells: Sequence[Tuple[CellSpec, CellRunner]],
               outcomes: Dict[str, List[dict]],
               failures: Dict[str, Tuple[int, str]]) -> StudyResult:
        """Merge journaled/received rows in canonical (caller) order.

        Executed records are rebuilt from the same JSON-safe dicts the
        journal stores (:func:`~repro.core.io.record_from_dict`), so a
        parallel merge and a later journal replay are bit-identical.
        """
        result = StudyResult()
        for spec, _ in cells:
            replayed = self._completed.get(spec.key)
            if replayed is not None:
                for row in replayed:
                    result.add(record_from_dict(row))
                self.stats.skipped += 1
            elif spec.key in outcomes:
                for row in outcomes[spec.key]:
                    result.add(record_from_dict(row))
            elif spec.key in failures:
                attempts, status = failures[spec.key]
                result.add(make_failed_record(spec, max(attempts, 1),
                                              status))
            else:                         # pragma: no cover - defensive
                result.add(make_failed_record(spec, 0, "failed"))
        return result

    def _append(self, entry: dict) -> None:
        if self.journal is not None:
            self.journal.append(entry)
