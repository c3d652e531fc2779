"""Cross-tenant batch scheduling for the serve path.

PR 8's manager processed batches inline inside ``ingest``, under the
calling tenant's lock: correct, but one hot tenant's backlog ran on the
connection handler's thread while every other tenant's work waited for
a thread of its own.  :class:`BatchScheduler` decouples *who asks* from
*who runs*: ingest enqueues carved batches as keyed work items and the
scheduler's workers dispatch them in a fair order, so no connection
thread runs another tenant's backlog.

Two invariants make the scheduler safe to put under the bit-identity
contract (kill-resume, chaos twins):

- **per-key FIFO**: items submitted under one key run in submission
  order, exactly the order ``ingest`` carved them;
- **per-key non-overlap**: at most one item per key is in flight, so a
  tenant's session is never entered concurrently.

Across keys the dispatch order is round-robin: a key leaves the
rotation while its item runs and re-joins at the *tail* when it
completes, so a hot tenant with a deep queue cannot starve a cold one
— every key gets one batch per rotation sweep.

Submitters get a :class:`BatchTicket` per item and wait on it; the ack
a client sees is therefore still synchronous (`batches_done` reflects
every batch of the chunk), only the execution is pooled.

The serve manager runs one single-worker scheduler per host process
(:mod:`repro.serve.host`): the hosts are the parallelism.  The worker is
the only thread that talks to its host, so a host sees one request at a
time in per-tenant FIFO order, and the worker waits on the host's socket
with the GIL released.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = ["BatchScheduler", "BatchTicket", "SchedulerClosedError"]


class SchedulerClosedError(RuntimeError):
    """Work submitted to — or stranded in — a scheduler being closed."""


class BatchTicket:
    """Completion handle for one submitted batch.

    A deliberately tiny future: :meth:`wait` blocks until the batch ran
    (re-raising the batch's exception, if any) and returns ``False``
    only on timeout; :attr:`result` then holds what the item returned.
    """

    __slots__ = ("_event", "error", "result")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.error: Optional[BaseException] = None
        self.result: Any = None

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        if not self._event.wait(timeout):
            return False
        if self.error is not None:
            raise self.error
        return True

    def _finish(self, error: Optional[BaseException] = None,
                result: Any = None) -> None:
        self.error = error
        self.result = result
        self._event.set()


class _KeyQueue:
    """One key's pending items plus its in-flight marker."""

    __slots__ = ("items", "in_flight")

    def __init__(self) -> None:
        self.items: Deque[tuple] = deque()      # (fn, ticket)
        self.in_flight = False


class BatchScheduler:
    """Round-robin keyed work queues over a bounded worker pool.

    Parameters
    ----------
    workers:
        Worker thread count (the serve manager uses one per host
        process).  Workers are daemon threads so an abandoned manager
        (the SIGKILL test pattern ``del manager``) never blocks
        interpreter exit.
    record_dispatches:
        Keep an ordered log of dispatched keys in :attr:`dispatch_log`
        (tests assert fairness on it; off by default to stay O(1)).
    start:
        ``False`` delays the worker pool until :meth:`start`, letting a
        test preload queues and observe a deterministic dispatch order.
    """

    def __init__(self, *, workers: int = 2,
                 record_dispatches: bool = False,
                 start: bool = True) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.dispatch_log: List[str] = []
        self._record = record_dispatches
        self._cond = threading.Condition()
        self._queues: Dict[str, _KeyQueue] = {}
        self._rotation: Deque[str] = deque()
        self._in_flight = 0
        self._queued = 0
        self._dispatched = 0
        self._closed = False
        self._threads: List[threading.Thread] = []
        if start:
            self.start()

    # -- submission ----------------------------------------------------

    def submit(self, key: str, fn: Callable[[], Any]) -> BatchTicket:
        """Queue ``fn`` under ``key``; returns its completion ticket."""
        ticket = BatchTicket()
        with self._cond:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            queue = self._queues.get(key)
            if queue is None:
                queue = self._queues[key] = _KeyQueue()
            queue.items.append((fn, ticket))
            self._queued += 1
            # a key already in flight (or already queued) is not
            # re-entered into the rotation: the finishing worker or the
            # existing entry will pick this item up in FIFO order
            if not queue.in_flight and len(queue.items) == 1:
                self._rotation.append(key)
            self._cond.notify()
        return ticket

    # -- worker pool ---------------------------------------------------

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        started: List[threading.Thread] = []
        with self._cond:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            while len(self._threads) < self.workers:
                thread = threading.Thread(
                    target=self._work, daemon=True,
                    name=f"serve-batch-{len(self._threads)}")
                self._threads.append(thread)
                started.append(thread)
        for thread in started:
            thread.start()

    def _work(self) -> None:
        while True:
            with self._cond:
                while not self._closed and not self._rotation:
                    self._cond.wait()
                if self._closed:
                    return
                key = self._rotation.popleft()
                queue = self._queues[key]
                fn, ticket = queue.items.popleft()
                queue.in_flight = True
                self._in_flight += 1
                self._queued -= 1
                self._dispatched += 1
                if self._record:
                    self.dispatch_log.append(key)
            error: Optional[BaseException] = None
            result: Any = None
            try:
                result = fn()
            except BaseException as exc:       # noqa: BLE001 — carried
                error = exc                    # to the submitter's wait
            # an idle worker keeps no reference to the item it last ran
            # (a manager dropped without close() must stay collectable)
            fn = None
            with self._cond:
                self._in_flight -= 1
                if not self._closed:
                    queue.in_flight = False
                    if queue.items:
                        # tail re-entry: round-robin fairness across keys
                        self._rotation.append(key)
                    else:
                        del self._queues[key]
                self._cond.notify_all()         # wake workers + waiters
            ticket._finish(error, result)
            ticket = result = error = None

    # -- synchronization -----------------------------------------------

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no work is queued or in flight anywhere."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._queued == 0 and self._in_flight == 0,
                timeout)

    def wait_key(self, key: str, timeout: Optional[float] = None) -> bool:
        """Block until ``key`` has no queued or in-flight work."""
        with self._cond:
            return self._cond.wait_for(
                lambda: key not in self._queues, timeout)

    def depth(self) -> int:
        """Batches currently queued plus in flight."""
        with self._cond:
            return self._queued + self._in_flight

    def stats(self) -> dict:
        """JSON-safe counters for the daemon's status document."""
        with self._cond:
            return {"workers": self.workers, "queued": self._queued,
                    "in_flight": self._in_flight,
                    "dispatched": self._dispatched}

    def close(self, timeout: float = 5.0) -> None:
        """Stop the pool; outstanding tickets fail with a closed error.

        In-flight batches finish (their tickets resolve normally);
        queued-but-never-dispatched items are failed so no submitter
        waits forever.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            stranded = [ticket for queue in self._queues.values()
                        for _, ticket in queue.items]
            self._queues.clear()
            self._rotation.clear()
            self._queued = 0
            self._cond.notify_all()
        for ticket in stranded:
            ticket._finish(SchedulerClosedError(
                "scheduler closed before the batch ran"))
        for thread in self._threads:
            if thread.is_alive():
                thread.join(timeout=timeout)
        with self._cond:
            self._threads.clear()
