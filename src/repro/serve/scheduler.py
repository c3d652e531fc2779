"""Cross-tenant batch scheduling for the serve path.

PR 8's manager processed batches inline inside ``ingest``, under the
calling tenant's lock: correct, but one hot tenant's backlog ran on the
connection handler's thread while every other tenant's work waited for
a thread of its own.  :class:`BatchScheduler` decouples *who asks* from
*who runs*: ingest enqueues carved batches as keyed work items and the
scheduler's one worker thread dispatches them in a fair order, so no
connection thread runs another tenant's backlog.

The serve manager runs one scheduler per host process
(:mod:`repro.serve.host`): the hosts are the parallelism, and a host
answers one request at a time, so one worker is all a scheduler needs.
That worker is the only thread that talks to its host, and it waits on
the host's socket with the GIL released.  Two invariants make the
scheduler safe to put under the bit-identity contract (kill-resume,
chaos twins):

- **per-key FIFO**: items submitted under one key run in submission
  order, exactly the order ``ingest`` carved them;
- **per-key non-overlap**: with one worker, no two items run at once,
  so a tenant's session is never entered concurrently.

Across keys the dispatch order is round-robin: a key leaves the
rotation while its item runs and re-joins at the *tail* when it
completes, so a hot tenant with a deep queue cannot starve a cold one
— every key gets one batch per rotation sweep.

Submitters get a :class:`BatchTicket` per item and wait on it; the ack
a client sees is therefore still synchronous (`batches_done` reflects
every batch of the chunk), only the execution moved.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

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


class BatchScheduler:
    """Round-robin keyed work queues over one worker thread.

    The worker is a daemon thread, so an abandoned manager (the SIGKILL
    test pattern ``del manager``) never blocks interpreter exit.
    ``start=False`` delays it until :meth:`start`, letting a test preload
    queues and observe a deterministic dispatch order.
    """

    def __init__(self, *, start: bool = True) -> None:
        self._cond = threading.Condition()
        #: pending ``(fn, ticket)`` items of every key that has queued
        #: or running work; a key leaves only once it has neither
        self._queues: Dict[str, Deque[tuple]] = {}
        #: keys with queued work, in dispatch order; the running key is
        #: not among them until its item completes
        self._rotation: Deque[str] = deque()
        self._in_flight = 0
        self._queued = 0
        self._dispatched = 0
        self._closed = False
        self._thread: Optional[threading.Thread] = None
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
                queue = self._queues[key] = deque()
                self._rotation.append(key)
            # a key already queued or running is not re-entered into the
            # rotation: its entry, or its completion, picks this item up
            queue.append((fn, ticket))
            self._queued += 1
            self._cond.notify()
        return ticket

    # -- the worker ----------------------------------------------------

    def start(self) -> None:
        """Start the worker (idempotent)."""
        with self._cond:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            if self._thread is not None:
                return
            self._thread = threading.Thread(target=self._work, daemon=True,
                                            name="serve-batch")
        self._thread.start()

    def _work(self) -> None:
        while True:
            with self._cond:
                while not self._closed and not self._rotation:
                    self._cond.wait()
                if self._closed:
                    return
                key = self._rotation.popleft()
                queue = self._queues[key]
                fn, ticket = queue.popleft()
                self._in_flight = 1
                self._queued -= 1
                self._dispatched += 1
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
                self._in_flight = 0
                if not self._closed:
                    if queue:
                        # tail re-entry: round-robin fairness across keys
                        self._rotation.append(key)
                    else:
                        del self._queues[key]
                self._cond.notify_all()         # wake waiters
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
            return {"workers": 1, "queued": self._queued,
                    "in_flight": self._in_flight,
                    "dispatched": self._dispatched}

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker; outstanding tickets fail with a closed error.

        In-flight batches finish (their tickets resolve normally);
        queued-but-never-dispatched items are failed so no submitter
        waits forever.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            stranded = [ticket for queue in self._queues.values()
                        for _, ticket in queue]
            self._queues.clear()
            self._rotation.clear()
            self._queued = 0
            self._cond.notify_all()
        for ticket in stranded:
            ticket._finish(SchedulerClosedError(
                "scheduler closed before the batch ran"))
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=timeout)
